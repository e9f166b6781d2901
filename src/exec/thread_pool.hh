/**
 * @file
 * The --jobs helpers every tool and SweepPipeline (exec/pipeline.hh)
 * share: the default thread count, the clamp for absurd values and
 * the CLI parser. There is no pool: SweepPipeline starts its threads
 * per run.
 */

#ifndef TIA_EXEC_THREAD_POOL_HH
#define TIA_EXEC_THREAD_POOL_HH

#include <string>

namespace tia {

struct ThreadPool
{
    /**
     * std::thread::hardware_concurrency(), or 1 when the runtime
     * cannot tell (the standard allows it to return 0).
     */
    static unsigned defaultConcurrency();

    /**
     * Largest --jobs value the CLI tools accept without clamping:
     * generous oversubscription headroom (8x the hardware threads,
     * floor 64), but far below values that would exhaust memory or
     * thread handles on a typo like --jobs 999999.
     */
    static unsigned maxReasonableJobs();

    /**
     * Parse a --jobs CLI argument. Accepts non-negative decimal
     * integers only; 0 means "auto" (defaultConcurrency). Values above
     * maxReasonableJobs() are clamped with a warning on stderr;
     * malformed text exits with a diagnostic naming @p what.
     */
    static unsigned parseJobs(const std::string &text,
                              const char *what = "--jobs");
};

} // namespace tia

#endif // TIA_EXEC_THREAD_POOL_HH
