/**
 * @file
 * Tests for the sparse guest data image (src/guest/data_image.hh) over
 * every guest the Fig. 7-10 grid compiles: both VMs, all 11 workloads at
 * test size, all three dispatch kinds. The image stores only the runs
 * that can be nonzero; the intern table at the segment base is reserved
 * but not stored, and long zero runs of the allocations are cut out. A
 * load must still leave the guest with the same bytes and the same
 * resident pages as a dense copy of the whole segment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "guest/data_image.hh"
#include "guest/guest_program.hh"
#include "guest/layout.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"
#include "mem/memory.hh"

namespace
{

using namespace scd;
using namespace scd::guest;
using harness::InputSize;
using harness::VmKind;

struct GridGuest
{
    std::string label;
    std::shared_ptr<const GuestProgram> program;
};

/** The 66 guests of the grid (2 VMs x 11 scripts x 3 dispatch kinds). */
const std::vector<GridGuest> &
gridGuests()
{
    static const std::vector<GridGuest> guests = [] {
        std::vector<GridGuest> out;
        for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
            for (const harness::Workload &w : harness::workloads()) {
                for (DispatchKind kind : {DispatchKind::Switch,
                                          DispatchKind::Threaded,
                                          DispatchKind::Scd}) {
                    out.push_back(
                        {std::string(harness::vmName(vm)) + "/" + w.name +
                             "/" + dispatchKindName(kind),
                         harness::compileGuest(vm, w.text(InputSize::Test),
                                               kind)});
                }
            }
        }
        return out;
    }();
    return guests;
}

/** [dataBase, dataEnd) as one dense buffer: segments over zeros. */
std::vector<uint8_t>
denseData(const GuestProgram &p)
{
    std::vector<uint8_t> dense(p.dataEnd - p.dataBase, 0);
    for (const DataSegment &seg : p.data) {
        std::memcpy(dense.data() + (seg.addr - p.dataBase),
                    seg.bytes.data(), seg.bytes.size());
    }
    return dense;
}

/** Length of the longest run of zero bytes in @p bytes. */
size_t
longestZeroRun(const std::vector<uint8_t> &bytes)
{
    size_t longest = 0, run = 0;
    for (uint8_t b : bytes) {
        run = b == 0 ? run + 1 : 0;
        longest = std::max(longest, run);
    }
    return longest;
}

/** Frames of [lo, hi) at GuestMemory's page size. */
void
addFrames(std::set<uint64_t> &frames, uint64_t lo, uint64_t hi)
{
    for (uint64_t f = lo >> mem::GuestMemory::kPageBits;
         f <= (hi - 1) >> mem::GuestMemory::kPageBits; ++f)
        frames.insert(f);
}

TEST(GuestImage, SegmentsAreSortedDisjointAndSmall)
{
    ASSERT_EQ(gridGuests().size(), 66u);
    for (const GridGuest &g : gridGuests()) {
        SCOPED_TRACE(g.label);
        const GuestProgram &p = *g.program;
        EXPECT_EQ(p.dataBase, kDataBase);
        // The reserved intern table ends where the dense part begins.
        EXPECT_GT(p.dataEnd, kDataBase + uint64_t(kInternCapacity) * 8);
        uint64_t prevEnd = p.dataBase;
        uint64_t stored = 0;
        for (const DataSegment &seg : p.data) {
            EXPECT_FALSE(seg.bytes.empty());
            EXPECT_LT(longestZeroRun(seg.bytes), DataImage::kMinZeroRun)
                << "segment at " << seg.addr;
            EXPECT_GE(seg.addr, prevEnd);
            prevEnd = seg.addr + seg.bytes.size();
            stored += seg.bytes.size();
        }
        EXPECT_LE(prevEnd, p.dataEnd);
        EXPECT_LT(stored, 64u * 1024) << "the intern table got stored";
    }
}

TEST(GuestImage, LoadLeavesTheDenseLoadsPagesResident)
{
    size_t total = 0;
    for (const GridGuest &g : gridGuests()) {
        SCOPED_TRACE(g.label);
        const GuestProgram &p = *g.program;
        mem::GuestMemory sparse;
        p.loadInto(sparse);

        mem::GuestMemory dense;
        std::vector<uint8_t> bytes = denseData(p);
        dense.loadProgram(p.text);
        dense.writeBlock(p.dataBase, bytes.data(), bytes.size());

        std::set<uint64_t> frames;
        addFrames(frames, p.text.base, p.text.base + p.textBytes());
        addFrames(frames, p.dataBase, p.dataEnd);
        EXPECT_EQ(sparse.pageCount(), frames.size());
        EXPECT_EQ(sparse.pageCount(), dense.pageCount());
        total += sparse.pageCount();
    }
    RecordProperty("resident_pages", std::to_string(total));
}

TEST(GuestImage, LoadedDataIsSegmentsOverZeros)
{
    for (const GridGuest &g : gridGuests()) {
        SCOPED_TRACE(g.label);
        const GuestProgram &p = *g.program;
        mem::GuestMemory memory;
        p.loadInto(memory);
        std::vector<uint8_t> expect = denseData(p);
        size_t mismatches = 0;
        for (size_t off = 0; off < expect.size(); ++off) {
            if (memory.read8(p.dataBase + off) != expect[off])
                ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u);
    }
}

/**
 * Every occupied intern slot is reachable by the guest runtime's probe:
 * linear probing from the string's hash & (kInternCapacity - 1) passes
 * only occupied slots before it reaches the slot holding the string.
 */
TEST(GuestImage, InternSlotsSatisfyTheProbeInvariant)
{
    const uint64_t mask = kInternCapacity - 1;
    for (const GridGuest &g : gridGuests()) {
        SCOPED_TRACE(g.label);
        const GuestProgram &p = *g.program;
        mem::GuestMemory memory;
        p.loadInto(memory);
        auto slot = [&](uint64_t idx) {
            return memory.read64(kDataBase + idx * 8);
        };
        unsigned occupied = 0;
        for (uint64_t idx = 0; idx < kInternCapacity; ++idx) {
            uint64_t obj = slot(idx);
            if (obj == 0)
                continue;
            ++occupied;
            uint64_t len = memory.read64(obj + kStrLen);
            std::string text(len, '\0');
            for (uint64_t n = 0; n < len; ++n)
                text[n] = char(memory.read8(obj + kStrBytes + n));
            uint64_t hash = memory.read64(obj + kStrHash);
            EXPECT_EQ(hash, fnv1a(text.data(), len)) << text;
            uint64_t probe = hash & mask;
            for (; probe != idx; probe = (probe + 1) & mask) {
                if (slot(probe) == 0) {
                    ADD_FAILURE() << "'" << text << "' in slot " << idx
                                  << " unreachable: empty slot " << probe;
                    break;
                }
            }
        }
        EXPECT_GT(occupied, 0u);
    }
}

TEST(GuestImage, InternTableRangeIsReservedNotStored)
{
    DataImage image;
    const uint64_t tableEnd = kDataBase + uint64_t(kInternCapacity) * 8;
    EXPECT_EQ(image.internTable(), kDataBase);
    EXPECT_EQ(image.end(), tableEnd);
    EXPECT_TRUE(image.segments().empty());

    uint64_t obj = image.internString("print");
    EXPECT_EQ(obj, tableEnd);
    EXPECT_EQ(image.internString("print"), obj);
    uint64_t slotAddr =
        kDataBase + (fnv1a("print", 5) & (kInternCapacity - 1)) * 8;
    EXPECT_EQ(image.read64(slotAddr), obj);
    EXPECT_EQ(image.read64(slotAddr + 8), 0u);
    EXPECT_EQ(image.read64(obj + kStrLen), 5u);

    std::vector<DataSegment> segs = image.segments();
    ASSERT_EQ(segs.size(), 2u);
    EXPECT_EQ(segs[0].addr, slotAddr);
    EXPECT_EQ(segs[0].bytes.size(), 8u);
    EXPECT_EQ(segs[1].addr, tableEnd);
    EXPECT_EQ(segs[1].bytes.size(), image.end() - tableEnd);

    // A zeroed allocation between two strings is cut out of the stored
    // bytes, while a short zero run stays inside its segment.
    uint64_t gap = image.allocate(DataImage::kMinZeroRun);
    uint64_t second = image.internString("write");
    image.allocate(DataImage::kMinZeroRun - 8);
    uint64_t third = image.internString("tostring");
    segs = image.segments();
    ASSERT_EQ(segs.size(), 5u); // three slots, two dense runs
    EXPECT_EQ(segs[3].addr, tableEnd);
    EXPECT_LE(segs[3].addr + segs[3].bytes.size(), gap);
    EXPECT_EQ(segs[4].addr, second);
    EXPECT_EQ(segs[4].addr + segs[4].bytes.size(), image.end());
    EXPECT_GT(third, second);

    // Segments over zeros are the image byte for byte.
    std::vector<uint8_t> loaded(image.end() - kDataBase, 0);
    for (const DataSegment &seg : segs) {
        EXPECT_LT(longestZeroRun(seg.bytes), DataImage::kMinZeroRun);
        std::memcpy(loaded.data() + (seg.addr - kDataBase),
                    seg.bytes.data(), seg.bytes.size());
    }
    for (uint64_t addr = kDataBase; addr + 8 <= image.end(); addr += 8) {
        uint64_t v;
        std::memcpy(&v, loaded.data() + (addr - kDataBase), 8);
        ASSERT_EQ(v, image.read64(addr)) << "at " << addr;
    }

    // Stores through the public writers never land in the table.
    EXPECT_DEATH(image.write64(slotAddr, 1), "out of range");
    EXPECT_DEATH(image.write8(tableEnd - 1, 1), "out of range");
}

} // namespace
