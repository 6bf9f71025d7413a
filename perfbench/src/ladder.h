#ifndef CARAM_PERFBENCH_LADDER_H_
#define CARAM_PERFBENCH_LADDER_H_

/**
 * @file
 * The traced mode: the workload's stream replayed through each layer's
 * public API in turn, bottom up -- IndexGenerator::index, MatchProcessor
 * per visited row, CaRamSlice, Database, CaRamSubsystem, then the engine
 * (with its result cache and writer lane) -- with a benchmark-side span
 * around every call.
 */

#include <vector>

#include "core/subsystem.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

/** Stream positions replayed through each layer below the engine. */
constexpr std::size_t kLadderOps = 40000;
/** Requests per engine pass of the ladder. */
constexpr std::size_t kEngineOps = 100000;
/** Upper bound on one engine pass, seconds (a slow engine runs fewer
 *  requests instead of stretching the run). */
constexpr double kPassSeconds = 5.0;

/**
 * Run the ladder for @p w, adding every per-layer metric to @p m and the
 * checked ops to @p out.  Spans stay in @p spans.
 */
void runLadder(const Workload &w, Metrics &m, Outcome &out,
               SpanRecorder &spans);

/** The ladder's core.slice.rows_per_search alone, untimed, replayed
 *  against @p sys, whose tables must be as loaded (for a read-only
 *  workload, as loaded or after any number of its lookups). */
double sliceRowsPerSearch(const Workload &w, caram::core::CaRamSubsystem &sys);

} // namespace perfbench

#endif // CARAM_PERFBENCH_LADDER_H_
