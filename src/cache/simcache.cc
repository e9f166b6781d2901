#include "cache/simcache.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "cache/serialize.hh"
#include "core/logging.hh"

namespace tia {

namespace {

/** File magic: format name + on-disk layout revision. */
constexpr char kMagic[8] = {'T', 'I', 'A', 'S', 'I', 'M', 'C', '1'};

/** Revision of the container layout itself (header + entry framing). */
constexpr std::uint32_t kFileVersion = 1;

/** Directory part of @p path ("." when the path has no slash). */
std::string
dirnameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

/**
 * Advisory writer lock for a TIASIMC1 path, so two processes sharing
 * a cache directory (the tia-serve daemon and a CLI run) cannot
 * interleave partial saves through the shared "<path>.tmp" name. The
 * lock file sits next to the cache and is never deleted — deleting it
 * would race a peer that already holds the descriptor. Readers don't
 * need it: std::rename is atomic, so load() always sees a complete
 * old or complete new file.
 */
class SaveLock
{
  public:
    explicit SaveLock(const std::string &path)
        : fd_(::open((path + ".lock").c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                     0644))
    {
        if (fd_ >= 0) {
            int rc;
            do {
                rc = ::flock(fd_, LOCK_EX);
            } while (rc != 0 && errno == EINTR);
            locked_ = rc == 0;
        }
    }

    ~SaveLock()
    {
        if (fd_ >= 0) {
            if (locked_)
                ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    SaveLock(const SaveLock &) = delete;
    SaveLock &operator=(const SaveLock &) = delete;

    /** Lock acquisition is best-effort: an unlockable filesystem
     * (no permissions, exotic mount) degrades to the pre-lock
     * behavior instead of failing the save. */
    bool held() const { return locked_; }

  private:
    int fd_ = -1;
    bool locked_ = false;
};

/** write(2) the whole buffer, retrying on EINTR / short writes. */
bool
writeAll(int fd, const char *data, std::size_t size)
{
    std::size_t written = 0;
    while (written < size) {
        const ssize_t n = ::write(fd, data + written, size - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

/** fsync(2) a directory so a completed rename survives a crash. */
void
syncDirectory(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
        // Best-effort: some filesystems refuse directory fsync; the
        // rename itself is still atomic, only its durability after a
        // whole-machine crash would be at stake.
        (void)::fsync(fd);
        ::close(fd);
    }
}

} // namespace

std::string
SimCache::getOrCompute(const Digest128 &key,
                       const std::function<std::string()> &compute,
                       Lookup *lookup)
{
    std::unique_lock lock(mutex_);
    ++stats_.lookups;

    if (auto it = entries_.find(key); it != entries_.end()) {
        ++stats_.hits;
        if (lookup)
            *lookup = Lookup::Hit;
        std::string payload = it->second;
        if (verifyHits_) {
            // Recompute without the lock — verification costs a full
            // simulation and must not serialize other cache users.
            lock.unlock();
            const std::string fresh = compute();
            fatalIf(fresh != payload, "cache verify failed for key ",
                    key.hex(), ": cached payload (", payload.size(),
                    " bytes) differs from a fresh computation (",
                    fresh.size(),
                    " bytes); the key schema is missing an input or the "
                    "cache file is stale");
            lock.lock();
            ++stats_.verifiedHits;
        }
        return payload;
    }

    if (auto it = pending_.find(key); it != pending_.end()) {
        // Single-flight: another caller is already computing this key.
        ++stats_.coalesced;
        if (lookup)
            *lookup = Lookup::Coalesced;
        std::shared_ptr<InFlight> flight = it->second;
        done_.wait(lock, [&flight] { return flight->done; });
        if (flight->error)
            std::rethrow_exception(flight->error);
        return flight->payload;
    }

    // Leader path. The miss is counted here, at leadership claim, so
    // the hits + misses + coalesced == lookups identity survives a
    // throwing computation.
    ++stats_.misses;
    if (lookup)
        *lookup = Lookup::Miss;
    auto flight = std::make_shared<InFlight>();
    pending_.emplace(key, flight);
    lock.unlock();

    std::string payload;
    try {
        payload = compute();
    } catch (...) {
        lock.lock();
        flight->error = std::current_exception();
        flight->done = true;
        pending_.erase(key);
        done_.notify_all();
        throw;
    }

    lock.lock();
    entries_[key] = payload;
    ++generation_;
    flight->payload = payload;
    flight->done = true;
    pending_.erase(key);
    done_.notify_all();
    return payload;
}

std::optional<std::string>
SimCache::peek(const Digest128 &key) const
{
    std::lock_guard lock(mutex_);
    if (auto it = entries_.find(key); it != entries_.end())
        return it->second;
    return std::nullopt;
}

void
SimCache::put(const Digest128 &key, std::string payload)
{
    std::lock_guard lock(mutex_);
    entries_[key] = std::move(payload);
    ++generation_;
}

void
SimCache::erase(const Digest128 &key)
{
    std::lock_guard lock(mutex_);
    if (entries_.erase(key) > 0)
        ++generation_;
}

std::size_t
SimCache::size() const
{
    std::lock_guard lock(mutex_);
    return entries_.size();
}

bool
SimCache::load(const std::string &path, std::string *error)
{
    const auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return true; // no file yet: an empty warm tier, not an error

    std::ostringstream contents;
    contents << in.rdbuf();
    const std::string bytes = contents.str();

    ByteReader reader(bytes);
    for (const char expected : kMagic) {
        if (static_cast<char>(reader.u8()) != expected || !reader.ok())
            return fail("not a TIASIMC1 cache file: " + path);
    }
    const std::uint32_t fileVersion = reader.u32();
    if (!reader.ok() || fileVersion != kFileVersion)
        return fail("cache file format version " +
                    std::to_string(fileVersion) + " != " +
                    std::to_string(kFileVersion) + "; ignoring " + path);
    const std::uint32_t schema = reader.u32();
    if (!reader.ok() || schema != kCacheSchemaVersion)
        return fail("cache key schema version " + std::to_string(schema) +
                    " != " + std::to_string(kCacheSchemaVersion) +
                    "; ignoring " + path);
    const std::uint64_t count = reader.u64();
    if (!reader.ok())
        return fail("truncated cache header: " + path);

    // Adopt entries until the first sign of corruption; a truncated
    // tail costs recomputes for the dropped suffix only.
    std::uint64_t adopted = 0;
    std::lock_guard lock(mutex_);
    const bool wasEmpty = entries_.empty();
    for (std::uint64_t i = 0; i < count; ++i) {
        Digest128 key{reader.u64(), reader.u64()};
        std::string payload = reader.str();
        const Digest128 checksum{reader.u64(), reader.u64()};
        if (!reader.ok() || digest128(payload) != checksum)
            break;
        entries_[key] = std::move(payload);
        ++adopted;
    }
    stats_.loaded += adopted;
    if (adopted > 0)
        ++generation_;
    if (wasEmpty && adopted == count) {
        // Clean adoption of the whole file into an empty cache: the
        // resident entries are exactly the file's contents, so an
        // unmodified cache can dirty-skip its save back to this path.
        savedGeneration_ = generation_;
        savedPath_ = path;
    }
    if (adopted < count && error)
        *error = "cache file corrupt after entry " +
                 std::to_string(adopted) + " of " + std::to_string(count) +
                 "; kept the valid prefix: " + path;
    return true;
}

bool
SimCache::save(const std::string &path, std::string *error)
{
    const auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    ByteWriter out;
    std::uint64_t snapshot = 0;
    {
        std::lock_guard lock(mutex_);
        if (generation_ == savedGeneration_ && path == savedPath_)
            return true; // file already holds exactly these entries
        snapshot = generation_;
        out.bytes(kMagic, sizeof(kMagic));
        out.u32(kFileVersion);
        out.u32(kCacheSchemaVersion);
        out.u64(entries_.size());
        for (const auto &[key, payload] : entries_) {
            out.u64(key.hi);
            out.u64(key.lo);
            out.str(payload);
            const Digest128 checksum = digest128(payload);
            out.u64(checksum.hi);
            out.u64(checksum.lo);
        }
    }

    // Write-then-fsync-then-rename: a reader either sees the old
    // complete file or the new complete file; a crash (even kill -9 or
    // power loss) mid-save leaves the previous cache intact because
    // the data hits the disk before the rename makes it visible, and
    // the directory fsync afterwards makes the rename itself durable.
    // The advisory lock serializes concurrent savers sharing the
    // "<path>.tmp" scratch name (daemon + CLI on one cache directory).
    const SaveLock lock(path);
    const std::string tmp = path + ".tmp";
    {
        const int fd = ::open(tmp.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                              0644);
        if (fd < 0)
            return fail("cannot open " + tmp + " for writing: " +
                        std::strerror(errno));
        if (!writeAll(fd, out.data().data(), out.data().size())) {
            const std::string why = std::strerror(errno);
            ::close(fd);
            ::unlink(tmp.c_str());
            return fail("short write to " + tmp + ": " + why);
        }
        if (::fsync(fd) != 0) {
            const std::string why = std::strerror(errno);
            ::close(fd);
            ::unlink(tmp.c_str());
            return fail("cannot fsync " + tmp + ": " + why);
        }
        if (::close(fd) != 0)
            return fail("cannot close " + tmp + ": " +
                        std::strerror(errno));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const std::string why = std::strerror(errno);
        std::remove(tmp.c_str());
        return fail("cannot rename " + tmp + " to " + path + ": " + why);
    }
    syncDirectory(dirnameOf(path));
    {
        std::lock_guard lock(mutex_);
        // Mark clean only if nothing mutated while the file was being
        // written; a concurrent insert keeps the cache dirty so the
        // next save still runs.
        if (generation_ == snapshot) {
            savedGeneration_ = snapshot;
            savedPath_ = path;
        }
    }
    return true;
}

SimCache::Stats
SimCache::stats() const
{
    std::lock_guard lock(mutex_);
    return stats_;
}

JsonValue
SimCache::statsJson() const
{
    const Stats s = stats();
    JsonValue block = JsonValue::object();
    block["lookups"] = JsonValue(s.lookups);
    block["hits"] = JsonValue(s.hits);
    block["misses"] = JsonValue(s.misses);
    block["coalesced"] = JsonValue(s.coalesced);
    block["verified_hits"] = JsonValue(s.verifiedHits);
    return block;
}

std::string
SimCache::statsSummary() const
{
    const Stats s = stats();
    std::ostringstream os;
    os << "cache: " << s.lookups << " lookups, " << s.hits << " hits, "
       << s.misses << " misses, " << s.coalesced << " coalesced";
    if (s.verifiedHits > 0)
        os << ", " << s.verifiedHits << " verified";
    if (s.loaded > 0)
        os << " (" << s.loaded << " loaded from disk)";
    return os.str();
}

} // namespace tia
