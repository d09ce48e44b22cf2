/**
 * @file
 * The per-point correctness gate: compares a pass's scd-stats-v1 export
 * against the expected export at tolerance 0. Points are matched by
 * (set label, vm, workload, scheme, machine), so a plan run in any
 * order is checked point by point; document metadata (meta.gitRev) and
 * derived summaries are ignored.
 */

#ifndef PERFBENCH_CHECK_HH
#define PERFBENCH_CHECK_HH

#include <string>
#include <vector>

#include "obs/json.hh"

namespace perfbench
{

/** Outcome of comparing one export against the expected one. */
struct PointCheck
{
    size_t expectedPoints = 0;
    /** One entry per failing point key: "<key>: <reason>". */
    std::vector<std::string> failures;
};

/**
 * Compare every point of @p current against @p expected. A point fails
 * when it is missing, unexpected, duplicated, named in the current
 * document's failure manifest (any status other than ok), or differs in
 * instructions, cycles or any counter. Each failing point is reported
 * once.
 */
PointCheck comparePoints(const scd::obs::JsonValue &expected,
                         const scd::obs::JsonValue &current);

} // namespace perfbench

#endif // PERFBENCH_CHECK_HH
