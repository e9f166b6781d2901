/**
 * @file
 * Byte packing for the fabric control memo's keys (uarch/fabric_memo.hh):
 * writers that put fixed-width fields into a key buffer, and a reader
 * that takes them back in the same order.
 */

#ifndef TIA_UARCH_CONTROL_KEY_HH
#define TIA_UARCH_CONTROL_KEY_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "core/logging.hh"

namespace tia {

// The writers advance a cursor into a buffer the caller sized for the
// key's worst case, which is cheaper than growing a string per byte.

/** Write @p value as one byte; it must fit in one. */
inline void
putByte(char *&out, std::uint64_t value)
{
    panicIf(value > 0xff, "control key: a packed field exceeds a byte");
    *out++ = static_cast<char>(value);
}

/** Write the low @p bytes bytes of @p value, least significant first. */
inline void
putBytes(char *&out, std::uint64_t value, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        *out++ = static_cast<char>((value >> (8 * i)) & 0xff);
}

/** Most bytes putCount writes. */
constexpr std::size_t kCountBytes = 9;

/** Write an unbounded count: one byte below 255, else 255 and 8 bytes. */
inline void
putCount(char *&out, std::uint64_t value)
{
    if (value < 0xff) {
        *out++ = static_cast<char>(value);
        return;
    }
    *out++ = static_cast<char>(0xff);
    putBytes(out, value, 8);
}

/** Reads back what putByte/putBytes/putCount wrote, in order. */
class KeyReader
{
  public:
    explicit KeyReader(std::string_view key) : key_(key) {}

    std::uint8_t
    byte()
    {
        return static_cast<std::uint8_t>(key_[pos_++]);
    }

    std::uint64_t
    bytes(unsigned count)
    {
        std::uint64_t value = 0;
        for (unsigned i = 0; i < count; ++i)
            value |= std::uint64_t{byte()} << (8 * i);
        return value;
    }

    std::uint64_t
    count()
    {
        const std::uint8_t first = byte();
        return first < 0xff ? first : bytes(8);
    }

  private:
    std::string_view key_;
    std::size_t pos_ = 0;
};

} // namespace tia

#endif // TIA_UARCH_CONTROL_KEY_HH
