/**
 * @file
 * tia-asm: command-line assembler / disassembler, the C++ counterpart
 * of the Python assembler in the paper's toolchain (Figure 1).
 *
 *   tia-asm prog.s [-p params.yaml] [-o prog.bin] [--hex]
 *   tia-asm --disassemble prog.bin [-p params.yaml]
 *
 * The binary container holds, per PE, the full instruction store
 * (NIns entries, each padded to a 32-bit multiple — 128 bits at the
 * default parameters, exactly the host-side layout of Section 2.3):
 *
 *   "TIA1"  u32 numPes  u32 wordsPerPe  { wordsPerPe x u32 } per PE
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/assembler.hh"
#include "core/encoding.hh"
#include "core/logging.hh"
#include "obs/json.hh" // writeFile

namespace {

using namespace tia;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open ", path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
appendU32(std::string &out, std::uint32_t value)
{
    for (unsigned shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xff));
}

std::uint32_t
readU32(const std::string &data, std::size_t offset)
{
    fatalIf(offset + 4 > data.size(), "truncated binary");
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(data.data() + offset);
    return static_cast<std::uint32_t>(bytes[0]) |
           (static_cast<std::uint32_t>(bytes[1]) << 8) |
           (static_cast<std::uint32_t>(bytes[2]) << 16) |
           (static_cast<std::uint32_t>(bytes[3]) << 24);
}

int
assembleMode(const std::string &input, const ArchParams &params,
             const std::string &output, bool hex)
{
    const Program program = assemble(readFile(input), params);
    const unsigned words_per_pe =
        fieldWidths(params).padded() / 32 * params.numInstructions;

    if (hex) {
        for (unsigned pe = 0; pe < program.numPes(); ++pe) {
            std::printf("# PE %u\n", pe);
            const MachineCode store =
                encodeStore(params, program.pes[pe]);
            for (std::size_t w = 0; w < store.size(); ++w) {
                std::printf("%08x%s", store[w],
                            (w + 1) % 4 == 0 ? "\n" : " ");
            }
        }
        return 0;
    }

    std::string binary = "TIA1";
    appendU32(binary, program.numPes());
    appendU32(binary, words_per_pe);
    for (unsigned pe = 0; pe < program.numPes(); ++pe) {
        const MachineCode store = encodeStore(params, program.pes[pe]);
        for (std::uint32_t word : store)
            appendU32(binary, word);
    }
    fatalIf(!writeFile(output, binary), "cannot write ", output);
    std::fprintf(stderr, "%s: %u PE(s), %u static instruction(s), %u "
                 "words/PE -> %s\n",
                 input.c_str(), program.numPes(),
                 program.staticInstructions(), words_per_pe,
                 output.c_str());
    return 0;
}

int
disassembleMode(const std::string &input, const ArchParams &params)
{
    const std::string data = readFile(input);
    fatalIf(data.size() < 12 || std::memcmp(data.data(), "TIA1", 4) != 0,
            input, " is not a TIA1 binary");
    const std::uint32_t num_pes = readU32(data, 4);
    const std::uint32_t words_per_pe = readU32(data, 8);
    const unsigned expected =
        fieldWidths(params).padded() / 32 * params.numInstructions;
    fatalIf(words_per_pe != expected,
            "binary was assembled with different parameters (",
            words_per_pe, " words/PE, expected ", expected, ")");

    Program program;
    program.params = params;
    std::size_t offset = 12;
    for (std::uint32_t pe = 0; pe < num_pes; ++pe) {
        MachineCode store(words_per_pe);
        for (std::uint32_t w = 0; w < words_per_pe; ++w, offset += 4)
            store[w] = readU32(data, offset);
        std::vector<Instruction> all = decodeStore(params, store);
        std::vector<Instruction> valid;
        for (const auto &inst : all)
            if (inst.trigger.valid)
                valid.push_back(inst);
        program.pes.push_back(std::move(valid));
    }
    std::fputs(program.toString().c_str(), stdout);
    return 0;
}

void
usage()
{
    std::fputs(
        "usage: tia-asm prog.s [-p params] [-o out.bin] [--hex]\n"
        "       tia-asm --disassemble prog.bin [-p params]\n",
        stderr);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tia;
    std::string input;
    std::string output = "a.bin";
    std::string params_path;
    bool hex = false;
    bool disassemble = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-p" && i + 1 < argc) {
            params_path = argv[++i];
        } else if (arg == "-o" && i + 1 < argc) {
            output = argv[++i];
        } else if (arg == "--hex") {
            hex = true;
        } else if (arg == "--disassemble" || arg == "-d") {
            disassemble = true;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] != '-' && input.empty()) {
            input = arg;
        } else {
            usage();
            return 2;
        }
    }
    if (input.empty()) {
        usage();
        return 2;
    }

    try {
        ArchParams params;
        if (!params_path.empty())
            params = parseParams(readFile(params_path));
        const int code = disassemble
                             ? disassembleMode(input, params)
                             : assembleMode(input, params, output, hex);
        // Listings are buffered: a full device fails only at the flush.
        fatalIf(std::fflush(stdout) != 0 || std::ferror(stdout),
                "cannot write to stdout");
        return code;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "tia-asm: %s\n", error.what());
        return 1;
    }
}
