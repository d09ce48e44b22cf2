/**
 * @file
 * A classic set-associative cache timing model used for the L1 I-cache,
 * L1 D-cache, and (on the higher-end configuration) a unified L2. Only
 * hit/miss behaviour is modelled — data always comes from GuestMemory —
 * which is exactly what the paper's figures need (miss rates and miss
 * penalties).
 */

#ifndef SCD_CACHE_CACHE_HH
#define SCD_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace scd::cache
{

/** Replacement policy for a cache set. */
enum class Replacement
{
    LRU,
    RoundRobin,
};

/** Configuration of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t sizeBytes = 16 * 1024;
    unsigned associativity = 2;
    unsigned blockBytes = 64;
    Replacement replacement = Replacement::LRU;
};

/** Set-associative cache with hit/miss tracking. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access the block containing @p addr.
     * @param write true for stores (write-allocate).
     * @return true on hit.
     */
    bool access(uint64_t addr, bool write = false);

    /** True if the block containing @p addr is resident (no side effect). */
    bool probe(uint64_t addr) const;

    /** Invalidate all blocks. */
    void flush();

    const CacheConfig &config() const { return config_; }
    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    double
    missRate() const
    {
        return accesses_ ? double(misses_) / double(accesses_) : 0.0;
    }

    /** Export counters into @p group under "<name>." prefixes. */
    void exportStats(StatGroup &group) const;

  private:
    /** An empty way's tag: no block address (addr >> blockShift_, with
     *  blockShift_ >= 1) can equal it, so a hit needs one compare. */
    static constexpr uint64_t kEmpty = UINT64_MAX;

    struct Way
    {
        uint64_t tag = kEmpty;
        uint64_t lastUse = 0;
    };

    unsigned setIndex(uint64_t addr) const;
    uint64_t tagOf(uint64_t addr) const;

    CacheConfig config_;
    unsigned numSets_;
    unsigned blockShift_;
    std::vector<Way> ways_;          ///< numSets_ x associativity
    std::vector<unsigned> rrNext_;   ///< round-robin cursor per set
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
    uint64_t useClock_ = 0;
};

} // namespace scd::cache

#endif // SCD_CACHE_CACHE_HH
