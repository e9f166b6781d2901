/**
 * @file
 * Canonical, versioned byte serialization of simulation inputs.
 *
 * A cached simulation result is only reusable if its key captures
 * *every* input the result depends on: the assembled program, the
 * fabric wiring, the workload's input words, the microarchitecture and
 * the run options (including the fault plan — an injected run is a
 * different computation from a clean one). These serializers define one
 * canonical little-endian byte form per input type; cache keys are
 * digests of the concatenation (cache/digest.hh), and the golden-digest
 * tests (tests/test_simcache.cc) pin a handful of keys so an accidental
 * change to any serializer is caught at review time rather than as a
 * silent fleet-wide cache miss — or, worse, as stale hits after a
 * semantic change that forgot to bump the schema version.
 *
 * kCacheSchemaVersion is part of every key and of the on-disk header:
 * bump it whenever a serializer changes shape *or* the simulation
 * semantics behind a cached result change (a counter fix, a scheduler
 * change). Old warm tiers then degrade to a clean miss.
 */

#ifndef TIA_CACHE_SERIALIZE_HH
#define TIA_CACHE_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "core/program.hh"
#include "sim/fabric_config.hh"
#include "sim/fault.hh"
#include "uarch/config.hh"

namespace tia {

/**
 * Version of the cache key/payload serialization *and* of the
 * simulation semantics it memoizes. Bump on any change to either.
 */
inline constexpr std::uint32_t kCacheSchemaVersion = 7;

/**
 * Append-only little-endian byte writer. All multi-byte values are
 * written least-significant byte first regardless of host order, and
 * variable-length data is always length-prefixed, so the byte stream
 * is unambiguous and host-independent.
 */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buffer_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    /** Length-prefixed string. */
    void
    str(std::string_view s)
    {
        u64(s.size());
        buffer_.append(s.data(), s.size());
    }

    /** Length-prefixed run of u32 values, appended in one pass. */
    void
    u32s(std::span<const std::uint32_t> values)
    {
        u64(values.size());
        if (values.empty())
            return; // memcpy must not see data() == nullptr
        const std::size_t at = buffer_.size();
        buffer_.resize(at + 4 * values.size());
        char *out = buffer_.data() + at;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(out, values.data(), 4 * values.size());
        } else {
            for (std::uint32_t v : values) {
                for (int i = 0; i < 4; ++i)
                    *out++ = static_cast<char>((v >> (8 * i)) & 0xff);
            }
        }
    }

    /** Raw bytes (caller provides framing). */
    void
    bytes(const void *data, std::size_t size)
    {
        buffer_.append(static_cast<const char *>(data), size);
    }

    const std::string &data() const { return buffer_; }
    std::string take() { return std::move(buffer_); }

  private:
    std::string buffer_;
};

/**
 * Matching reader. Reads past the end do not throw: they return zero
 * values and latch a failure flag, so decoders can run to completion
 * on truncated input and reject it with one ok() check — a corrupt
 * cache entry must degrade to a miss, never a crash.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    std::uint8_t
    u8()
    {
        if (!ensure(1))
            return 0;
        return static_cast<std::uint8_t>(bytes_[pos_++]);
    }

    std::uint32_t
    u32()
    {
        if (!ensure(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!ensure(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t size = u64();
        if (size > remaining()) {
            failed_ = true;
            return {};
        }
        std::string out(bytes_.substr(pos_, size));
        pos_ += size;
        return out;
    }

    std::size_t remaining() const { return bytes_.size() - pos_; }
    bool ok() const { return !failed_; }
    /** True when every byte was consumed and nothing under-ran. */
    bool done() const { return !failed_ && remaining() == 0; }

  private:
    bool
    ensure(std::size_t need)
    {
        if (bytes_.size() - pos_ < need) {
            failed_ = true;
            pos_ = bytes_.size();
            return false;
        }
        return true;
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/** Canonical forms of the simulation input types. */
void serializeArchParams(ByteWriter &out, const ArchParams &params);
void serializeInstruction(ByteWriter &out, const Instruction &inst);
void serializeProgram(ByteWriter &out, const Program &program);
void serializeFabricConfig(ByteWriter &out, const FabricConfig &config);
void serializePeConfig(ByteWriter &out, const PeConfig &uarch);

/**
 * Fault plan: seed plus the canonical reparseable text form of every
 * event (FaultPlan::toString round-trips all event fields, so two
 * plans serialize equal exactly when they inject identically).
 */
void serializeFaultPlan(ByteWriter &out, const FaultPlan *plan);

} // namespace tia

#endif // TIA_CACHE_SERIALIZE_HH
