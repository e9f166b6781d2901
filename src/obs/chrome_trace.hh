/**
 * @file
 * Chrome trace_event exporter: serializes the TraceEvent stream as a
 * JSON array loadable in chrome://tracing / Perfetto.
 *
 * Track layout: one process (pid) per PE, with thread (tid) 0 carrying
 * the issue-slot timeline (attributions, issues, quashes, predictor
 * outcomes, park/wake/halt instants) and threads 1..depth carrying one
 * track per pipeline stage (Cycles level StageOccupancy events).
 * Channel depths appear as counter tracks under a reserved pid.
 * Timestamps are raw cycle numbers (the "ts" unit is one cycle, not a
 * microsecond); durations of per-cycle spans are 1.
 *
 * The exporter streams into an in-memory string; call writeTo() (or
 * finish()) once after the run. Metadata (process/thread names) should
 * be registered with setPeMetadata() before recording starts so the
 * document leads with it.
 */

#ifndef TIA_OBS_CHROME_TRACE_HH
#define TIA_OBS_CHROME_TRACE_HH

#include <string>
#include <vector>

#include "obs/trace.hh"

namespace tia {

/** Reserved Chrome pid for the channel counter tracks. */
inline constexpr std::uint32_t kChromeChannelPid = 1000000;

class ChromeTraceSink : public TraceSink
{
  public:
    ChromeTraceSink();

    /**
     * Name PE @p pe's process and stage threads, e.g.
     * setPeMetadata(0, "PE 0 (T|DX +P+Q)", {"T", "DX"}).
     */
    void setPeMetadata(unsigned pe, const std::string &label,
                       const std::vector<std::string> &stageNames);

    void record(const TraceEvent &event) override;

    /** Number of events recorded (metadata excluded). */
    std::uint64_t recorded() const { return recorded_; }

    /** Close the JSON array and return the whole document. */
    std::string finish() const;

    /** Serialize to @p path (writeFile); returns false on I/O failure. */
    bool writeTo(const std::string &path) const;

  private:
    void beginEvent(const char *ph, std::uint32_t pid, std::uint32_t tid,
                    Cycle ts, const std::string &name);

    std::string out_;
    bool first_ = true;
    std::uint64_t recorded_ = 0;
};

} // namespace tia

#endif // TIA_OBS_CHROME_TRACE_HH
