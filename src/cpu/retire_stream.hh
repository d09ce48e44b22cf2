/**
 * @file
 * Execute-once, time-many support types (see docs/SIMULATOR.md).
 *
 * A replay group executes one FunctionalCore per unique functional key
 * and fans the retired-instruction stream out to every timing model in
 * the group. The stream never exists in full: the producer fills one
 * RetireChunk at a time (RetireStream), each consumer drains it, and the
 * chunk is reused — memory stays flat however long the run is, and a
 * chunk is small enough to stay cache-resident while every consumer
 * walks it.
 *
 * The single timing-to-functional feedback edge is bop's mid-instruction
 * JTE probe, whose outcome depends on each consumer's own JTE state. The
 * producer therefore records the *superset* stream: bound to
 * RecorderTiming, whose JTE port is always empty, every eligible bop
 * records as a probed miss followed by the full slow dispatch path
 * (dispatch sequence, then the jru that would have inserted the JTE).
 * Each consumer performs the real jteLookup against its own timing model
 * at every probed bop: on a miss it retires the recorded slow path as-is;
 * on a hit it retires a synthesized hit-bop and skips the recorded
 * entries up to the terminating jru — exactly the instructions direct
 * execution would never have fetched.
 */

#ifndef SCD_CPU_RETIRE_STREAM_HH
#define SCD_CPU_RETIRE_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/stats.hh"
#include "retire_info.hh"
#include "timing_model.hh"

namespace scd::cpu
{

/**
 * One span of consecutively retired instructions. 256 entries (20 KB)
 * keep a chunk inside L1: the producer's stores and every consumer's
 * loads hit the same lines, while the per-chunk hand-off still costs
 * under a nanosecond per instruction.
 *
 * A refill does not value-initialize the entries: the recorders begin
 * every record with cpu::beginRetire, which stores each field's default
 * explicitly, so entries [0, count) never hold a previous fill's bytes.
 * A `RetireInfo{}` per record would cost a `rep stosq` per retired
 * instruction (tests/dispatch_tier_test.cc fills the chunk with junk to
 * pin this).
 */
struct RetireChunk
{
    static constexpr size_t kCapacity = 256;

    RetireInfo entries[kCapacity];
    size_t count = 0;
};

/**
 * The hand-off buffer between one producer and its consumers. The group
 * scheduler runs producer and consumers in lockstep inside one task
 * (produce a chunk, let every live consumer drain it, reuse it), so one
 * chunk needs no synchronization and bounds memory however long the run.
 */
class RetireStream
{
  public:
    /** The chunk to fill next; the previous fill has been consumed. */
    RetireChunk &
    produceSlot()
    {
        chunk_.count = 0;
        return chunk_;
    }

  private:
    RetireChunk chunk_;
};

/**
 * The producer-side timing model of a replay group: a JTE port that is
 * permanently empty. Every eligible bop misses, so the recorded stream
 * contains the slow dispatch path for every dispatch — the superset from
 * which any consumer's execution is a prefix-preserving subsequence.
 * Inserts and flushes are no-ops (there is nothing to hold), and no
 * cycles exist; the producer's FunctionalCore is stepped manually with a
 * RetireInfo record, so retire() is never on the hot path.
 */
class RecorderTiming : public TimingModel
{
  public:
    std::optional<uint64_t>
    jteLookup(uint8_t, uint64_t) override
    {
        return std::nullopt;
    }

    void jteInsert(uint8_t, uint64_t, uint64_t) override {}
    void jteFlush() override {}

    bool needsRetireInfo() const override { return true; }
    void retire(const RetireInfo &) override {}
    uint64_t cycles() const override { return 0; }
    void exportStats(StatGroup &) const override {}
};

} // namespace scd::cpu

#endif // SCD_CPU_RETIRE_STREAM_HH
