#include "data_image.hh"

#include <cstring>

#include "common/logging.hh"

namespace scd::guest
{

DataImage::DataImage(uint64_t base)
    : base_(base), denseBase_(base + uint64_t(kInternCapacity) * 8)
{
}

uint64_t
DataImage::allocate(uint64_t size, uint64_t align)
{
    uint64_t aligned = (end() + align - 1) & ~(align - 1);
    dense_.resize(aligned - denseBase_ + size, 0);
    return aligned;
}

size_t
DataImage::denseOffset(uint64_t addr, uint64_t size) const
{
    SCD_ASSERT(addr >= denseBase_ && addr + size <= end(),
               "data access out of range");
    return addr - denseBase_;
}

void
DataImage::write8(uint64_t addr, uint8_t v)
{
    dense_[denseOffset(addr, 1)] = v;
}

void
DataImage::write32(uint64_t addr, uint32_t v)
{
    std::memcpy(&dense_[denseOffset(addr, 4)], &v, 4);
}

void
DataImage::write64(uint64_t addr, uint64_t v)
{
    std::memcpy(&dense_[denseOffset(addr, 8)], &v, 8);
}

void
DataImage::writeTValue(uint64_t addr, int64_t tag, uint64_t payload)
{
    write64(addr, static_cast<uint64_t>(tag));
    write64(addr + 8, payload);
}

uint64_t
DataImage::read64(uint64_t addr) const
{
    if (addr < denseBase_) {
        SCD_ASSERT(addr >= base_ && (addr - base_) % 8 == 0,
                   "data read out of range");
        auto it = internSlots_.find((addr - base_) / 8);
        return it == internSlots_.end() ? 0 : it->second;
    }
    uint64_t v;
    std::memcpy(&v, &dense_[denseOffset(addr, 8)], 8);
    return v;
}

uint64_t
DataImage::internString(const std::string &s)
{
    auto it = internMap_.find(s);
    if (it != internMap_.end())
        return it->second;

    uint64_t obj = allocate(kStrBytes + s.size());
    uint64_t hash = fnv1a(s.data(), s.size());
    write64(obj + kStrLen, s.size());
    write64(obj + kStrHash, hash);
    for (size_t n = 0; n < s.size(); ++n)
        write8(obj + kStrBytes + n, static_cast<uint8_t>(s[n]));

    // Insert into the open-addressed intern table (linear probing), the
    // same probe sequence the guest runtime walks.
    if (internSlots_.size() == kInternCapacity)
        panic("intern table full at build time");
    uint64_t mask = kInternCapacity - 1;
    uint64_t idx = hash & mask;
    while (!internSlots_.try_emplace(idx, obj).second)
        idx = (idx + 1) & mask;
    internMap_.emplace(s, obj);
    return obj;
}

std::vector<DataSegment>
DataImage::segments() const
{
    std::vector<DataSegment> out;
    // Adjacent occupied slots share one segment.
    for (const auto &[idx, obj] : internSlots_) {
        uint64_t addr = base_ + idx * 8;
        if (out.empty() || out.back().addr + out.back().bytes.size() != addr)
            out.push_back({addr, {}});
        std::vector<uint8_t> &bytes = out.back().bytes;
        bytes.resize(bytes.size() + 8);
        std::memcpy(bytes.data() + bytes.size() - 8, &obj, 8);
    }
    if (!dense_.empty())
        out.push_back({denseBase_, dense_});
    return out;
}

} // namespace scd::guest
