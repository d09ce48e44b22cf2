#include "cache.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace scd::cache
{

Cache::Cache(const CacheConfig &config) : config_(config)
{
    SCD_ASSERT(isPowerOf2(config.blockBytes) && config.blockBytes >= 2,
               "block size not a power of 2 above 1");
    SCD_ASSERT(config.associativity > 0, "zero associativity");
    uint64_t blocks = config.sizeBytes / config.blockBytes;
    SCD_ASSERT(blocks % config.associativity == 0,
               "size/assoc mismatch in cache '", config.name, "'");
    numSets_ = static_cast<unsigned>(blocks / config.associativity);
    SCD_ASSERT(isPowerOf2(numSets_), "set count not power of 2");
    blockShift_ = floorLog2(config.blockBytes);
    ways_.resize(numSets_ * config.associativity);
    rrNext_.resize(numSets_, 0);
}

unsigned
Cache::setIndex(uint64_t addr) const
{
    return static_cast<unsigned>((addr >> blockShift_) & (numSets_ - 1));
}

uint64_t
Cache::tagOf(uint64_t addr) const
{
    return addr >> blockShift_;
}

bool
Cache::access(uint64_t addr, bool write)
{
    (void)write; // write-allocate: identical placement behaviour
    ++accesses_;
    ++useClock_;
    unsigned set = setIndex(addr);
    uint64_t tag = tagOf(addr);
    Way *base = &ways_[set * config_.associativity];
    for (unsigned w = 0; w < config_.associativity; ++w) {
        if (base[w].tag == tag) {
            base[w].lastUse = useClock_;
            return true;
        }
    }
    ++misses_;
    // Choose a victim: invalid way first, else policy.
    unsigned victim = 0;
    bool found = false;
    for (unsigned w = 0; w < config_.associativity; ++w) {
        if (base[w].tag == kEmpty) {
            victim = w;
            found = true;
            break;
        }
    }
    if (!found) {
        if (config_.replacement == Replacement::RoundRobin) {
            victim = rrNext_[set];
            rrNext_[set] = (victim + 1) % config_.associativity;
        } else {
            uint64_t oldest = UINT64_MAX;
            for (unsigned w = 0; w < config_.associativity; ++w) {
                if (base[w].lastUse < oldest) {
                    oldest = base[w].lastUse;
                    victim = w;
                }
            }
        }
    }
    base[victim].tag = tag;
    base[victim].lastUse = useClock_;
    return false;
}

bool
Cache::probe(uint64_t addr) const
{
    unsigned set = setIndex(addr);
    uint64_t tag = tagOf(addr);
    const Way *base = &ways_[set * config_.associativity];
    for (unsigned w = 0; w < config_.associativity; ++w) {
        if (base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (Way &w : ways_)
        w.tag = kEmpty;
}

void
Cache::exportStats(StatGroup &group) const
{
    group.counter(config_.name + ".accesses") = accesses_;
    group.counter(config_.name + ".misses") = misses_;
}

} // namespace scd::cache
