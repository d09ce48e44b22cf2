#include "module_data.hh"

#include "common/logging.hh"

namespace scd::guest
{

using vm::Builtin;
using vm::Type;
using vm::Value;

namespace
{

constexpr unsigned kNumBuiltins =
    static_cast<unsigned>(Builtin::NumBuiltins);

const char *kBuiltinNames[kNumBuiltins] = {
    "print", "sqrt", "strsub", "strbyte", "strchar", "tofloat",
};

/** Emit builtin proto descriptors; returns their guest addresses. */
std::vector<uint64_t>
emitBuiltinDescs(DataImage &data)
{
    std::vector<uint64_t> descs;
    for (unsigned n = 0; n < kNumBuiltins; ++n) {
        uint64_t d = data.allocate(kProtoDescSize);
        data.write64(d + kProtoKind, 1);
        data.write64(d + kProtoBuiltinId, n);
        descs.push_back(d);
    }
    return descs;
}

/**
 * Serialize one Value into (tag, payload); strings are interned and
 * functions resolve through @p protoDescs.
 */
std::pair<int64_t, uint64_t>
lowerValue(DataImage &data, const Value &v,
           const std::vector<uint64_t> &protoDescs,
           const std::vector<uint64_t> &builtinDescs)
{
    switch (v.type()) {
      case Type::Nil:
        return {kTagNil, 0};
      case Type::False:
        return {kTagFalse, 0};
      case Type::True:
        return {kTagTrue, 0};
      case Type::Int:
        return {kTagInt, static_cast<uint64_t>(v.asInt())};
      case Type::Float: {
        double d = v.asFloat();
        uint64_t raw;
        static_assert(sizeof(d) == sizeof(raw));
        __builtin_memcpy(&raw, &d, sizeof(raw));
        return {kTagFloat, raw};
      }
      case Type::Str:
        return {kTagStr, data.internString(v.asStr())};
      case Type::Fun:
        if (v.isBuiltinFunction())
            return {kTagFun,
                    builtinDescs[static_cast<size_t>(v.builtinId())]};
        return {kTagFun, protoDescs[v.functionId()]};
      default:
        panic("cannot serialize this value type");
    }
}

/** Serialize a table with string keys -> (tag, payload) entries. */
uint64_t
serializeStringKeyedTable(
    DataImage &data,
    const std::vector<std::pair<std::string,
                                std::pair<int64_t, uint64_t>>> &entries)
{
    uint64_t table = data.allocate(kTabSize);
    // Generously sized hash part so startup writes rarely grow it.
    uint64_t cap = 64;
    while (cap < entries.size() * 2)
        cap *= 2;
    uint64_t nodes = data.allocate(cap * kNodeSize);
    data.write64(table + kTabHashPtr, nodes);
    data.write64(table + kTabHashMask, cap - 1);
    data.write64(table + kTabHashCount, entries.size());

    for (const auto &[key, value] : entries) {
        uint64_t strObj = data.internString(key);
        uint64_t hash = fnv1a(key.data(), key.size());
        uint64_t idx = hash & (cap - 1);
        // Linear probing, same walk as the guest runtime.
        while (true) {
            uint64_t node = nodes + idx * kNodeSize;
            // Probe by reading back what we already wrote.
            if (data.read64(node) == 0) {
                data.write64(node + 0, kTagStr);
                data.write64(node + 8, strObj);
                data.write64(node + 16, value.first);
                data.write64(node + 24, value.second);
                break;
            }
            idx = (idx + 1) & (cap - 1);
        }
    }
    return table;
}

/** Common trailer: builtins, globals, VM struct, jump table. */
void
finishModule(DataImage &data, SerializedModule &out, unsigned numOps,
             const std::vector<uint64_t> &builtinDescs)
{
    std::vector<std::pair<std::string, std::pair<int64_t, uint64_t>>>
        globals;
    for (unsigned n = 0; n < kNumBuiltins; ++n) {
        globals.push_back(
            {kBuiltinNames[n], {kTagFun, builtinDescs[n]}});
    }
    out.globalsTable = serializeStringKeyedTable(data, globals);
    out.vmStruct = data.allocate(kVmSize);
    out.numOps = numOps;
    out.jumpTable = data.allocate(uint64_t(numOps) * 8);
    out.profileTable = data.allocate(uint64_t(numOps) * 8);

    out.protoDescTable = data.allocate(out.protoDescs.size() * 8);
    for (size_t n = 0; n < out.protoDescs.size(); ++n)
        data.write64(out.protoDescTable + n * 8, out.protoDescs[n]);
}

} // namespace

SerializedModule
serializeRluaModule(DataImage &data, const vm::rlua::Module &module)
{
    SerializedModule out;
    auto builtinDescs = emitBuiltinDescs(data);

    // Allocate descriptors first so constants can reference any proto.
    for (size_t n = 0; n < module.protos.size(); ++n)
        out.protoDescs.push_back(data.allocate(kProtoDescSize));

    for (size_t n = 0; n < module.protos.size(); ++n) {
        const auto &proto = module.protos[n];
        uint64_t code = data.allocate(proto.code.size() * 4 + 4);
        for (size_t w = 0; w < proto.code.size(); ++w)
            data.write32(code + w * 4, proto.code[w]);
        uint64_t consts =
            data.allocate(proto.constants.size() * kTValueSize + 8);
        for (size_t k = 0; k < proto.constants.size(); ++k) {
            auto [tag, payload] = lowerValue(data, proto.constants[k],
                                             out.protoDescs, builtinDescs);
            data.writeTValue(consts + k * kTValueSize, tag, payload);
        }
        uint64_t d = out.protoDescs[n];
        data.write64(d + kProtoCode, code);
        data.write64(d + kProtoNumParams, proto.numParams);
        data.write64(d + kProtoFrameSize, proto.maxStack);
        data.write64(d + kProtoConsts, consts);
        data.write64(d + kProtoKind, 0);
    }

    finishModule(data, out, vm::rlua::kNumOps, builtinDescs);
    return out;
}

SerializedModule
serializeSjsModule(DataImage &data, const vm::sjs::Module &module)
{
    SerializedModule out;
    auto builtinDescs = emitBuiltinDescs(data);

    for (size_t n = 0; n < module.protos.size(); ++n)
        out.protoDescs.push_back(data.allocate(kProtoDescSize));

    for (size_t n = 0; n < module.protos.size(); ++n) {
        const auto &proto = module.protos[n];
        uint64_t code = data.allocate(proto.code.size() + 8);
        for (size_t b = 0; b < proto.code.size(); ++b)
            data.write8(code + b, proto.code[b]);
        uint64_t consts =
            data.allocate(proto.constants.size() * kTValueSize + 8);
        for (size_t k = 0; k < proto.constants.size(); ++k) {
            auto [tag, payload] = lowerValue(data, proto.constants[k],
                                             out.protoDescs, builtinDescs);
            data.writeTValue(consts + k * kTValueSize, tag, payload);
        }
        uint64_t d = out.protoDescs[n];
        data.write64(d + kProtoCode, code);
        data.write64(d + kProtoNumParams, proto.numParams);
        data.write64(d + kProtoFrameSize, proto.numLocals);
        data.write64(d + kProtoConsts, consts);
        data.write64(d + kProtoKind, 0);
        data.write64(d + kProtoOperandStack, proto.maxStack);
    }

    finishModule(data, out, vm::sjs::kNumOps, builtinDescs);
    return out;
}

} // namespace scd::guest
