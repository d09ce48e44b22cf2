/**
 * @file
 * A fully-built guest world: interpreter text, serialized data segment,
 * and the dispatcher metadata the simulator's statistics need.
 */

#ifndef SCD_GUEST_GUEST_PROGRAM_HH
#define SCD_GUEST_GUEST_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "cpu/core.hh"
#include "data_image.hh"
#include "isa/program.hh"
#include "mem/memory.hh"

namespace scd::guest
{

/** Which dispatch construction the interpreter was built with. */
enum class DispatchKind
{
    Switch,   ///< canonical single dispatcher (Figure 1(a)/(b))
    Threaded, ///< jump threading: dispatcher replicated per handler
    Scd,      ///< short-circuit dispatch (Figure 4)
};

inline const char *
dispatchKindName(DispatchKind kind)
{
    switch (kind) {
      case DispatchKind::Switch:
        return "switch";
      case DispatchKind::Threaded:
        return "threaded";
      case DispatchKind::Scd:
        return "scd";
    }
    return "?";
}

/** The built guest image. */
struct GuestProgram
{
    isa::Program text;
    /** The stored runs of [dataBase, dataEnd); every other byte is 0. */
    std::vector<DataSegment> data;
    uint64_t dataBase = 0;
    uint64_t dataEnd = 0;
    cpu::DispatchMeta meta;

    /**
     * Load text and data into guest memory. Every page of the data
     * segment is made resident, zero runs included, so the guest's
     * accesses to the intern table hit the same resident pages as they
     * would after a dense copy.
     */
    void
    loadInto(mem::GuestMemory &memory) const
    {
        memory.loadProgram(text);
        memory.reserve(dataBase, dataEnd - dataBase);
        for (const DataSegment &seg : data)
            memory.writeBlock(seg.addr, seg.bytes.data(), seg.bytes.size());
    }

    /** Interpreter code size in bytes (for footprint reporting). */
    uint64_t textBytes() const { return text.words.size() * 4; }
};

} // namespace scd::guest

#endif // SCD_GUEST_GUEST_PROGRAM_HH
