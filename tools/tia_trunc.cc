/**
 * @file
 * tia-trunc: truncate a file to a given byte length.
 *
 *   tia-trunc FILE BYTES
 *
 * Test helper for the cache-corruption ctest fixtures
 * (tools/CMakeLists.txt): chopping a TIASIMC1 warm tier mid-entry must
 * degrade to a miss, never a crash, and the next --cache run rewrites
 * the file. cmake -E has no truncate, hence this small tool.
 */

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "core/parse.hh"

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: tia-trunc FILE BYTES\n");
        return 2;
    }
    std::uint64_t size = 0;
    try {
        size = tia::parseCount64("BYTES", argv[2]);
    } catch (const tia::FatalError &error) {
        std::fprintf(stderr, "tia-trunc: %s\n", error.what());
        return 2;
    }
    std::error_code ec;
    std::filesystem::resize_file(argv[1], size, ec);
    if (ec) {
        std::fprintf(stderr, "tia-trunc: %s: %s\n", argv[1],
                     ec.message().c_str());
        return 1;
    }
    return 0;
}
