/**
 * @file
 * Builder for the guest's static data segment: bytecode images, constant
 * TValue arrays, interned string objects, proto descriptors, the intern
 * table, and the globals table — serialized host-side so the guest
 * interpreter starts with a fully-formed world.
 *
 * The intern table occupies the first kInternCapacity * 8 bytes at the
 * segment base (the guest runtime bakes its size into the probe mask),
 * but almost all of its slots stay zero. The builder therefore never
 * stores the table: occupied slots live in a sparse slot map, and only
 * the allocations after the reserved range are kept densely. segments()
 * hands out what a loader has to write, leaving out long zero runs of
 * the dense part too; every other byte is zero.
 */

#ifndef SCD_GUEST_DATA_IMAGE_HH
#define SCD_GUEST_DATA_IMAGE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layout.hh"

namespace scd::guest
{

/** One stored run of the data segment; bytes outside every run are 0. */
struct DataSegment
{
    uint64_t addr;
    std::vector<uint8_t> bytes;
};

/** Bump allocator over the guest data segment. */
class DataImage
{
  public:
    explicit DataImage(uint64_t base = kDataBase);

    /** Reserve @p size zeroed bytes; returns the guest address. */
    uint64_t allocate(uint64_t size, uint64_t align = 8);

    /** Stores into allocations; the intern table's range is off limits. */
    void write8(uint64_t addr, uint8_t v);
    void write32(uint64_t addr, uint32_t v);
    void write64(uint64_t addr, uint64_t v);
    void writeTValue(uint64_t addr, int64_t tag, uint64_t payload);

    /** The 8 bytes at @p addr as the loaded segment will hold them. */
    uint64_t read64(uint64_t addr) const;

    /**
     * Create (or reuse) the interned string object for @p s and register
     * it in the guest intern table. Returns the object address.
     */
    uint64_t internString(const std::string &s);

    /** Guest address of the intern table (pointer array). */
    uint64_t internTable() const { return base_; }

    uint64_t base() const { return base_; }
    uint64_t end() const { return denseBase_ + dense_.size(); }

    /** Zero runs at least this long are never stored by segments(). */
    static constexpr size_t kMinZeroRun = 64;

    /**
     * The parts of [base(), end()) that can hold nonzero bytes: runs of
     * occupied intern slots, then the dense allocations split at zero
     * runs of kMinZeroRun bytes or more. Sorted, disjoint, nonempty.
     */
    std::vector<DataSegment> segments() const;

  private:
    /** Index into dense_ of the @p size bytes at @p addr (checked). */
    size_t denseOffset(uint64_t addr, uint64_t size) const;

    uint64_t base_;                            ///< the intern table
    uint64_t denseBase_;                       ///< first byte after it
    std::vector<uint8_t> dense_;               ///< [denseBase_, end())
    std::map<uint64_t, uint64_t> internSlots_; ///< slot index -> object
    std::map<std::string, uint64_t> internMap_;
};

} // namespace scd::guest

#endif // SCD_GUEST_DATA_IMAGE_HH
