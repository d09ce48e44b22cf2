#include "rlua_guest.hh"

#include <array>

#include "common/logging.hh"
#include "cpu/syscalls.hh"
#include "module_data.hh"
#include "runtime.hh"

namespace scd::guest
{

using namespace scd::isa;
using namespace scd::isa::reg;
using vm::rlua::Op;

namespace
{

/**
 * Emits the RLua guest interpreter.
 *
 * Global register plan (preserved by all runtime subroutines):
 *   s0  = VM state struct (holds the virtual PC, as in Figure 1(b))
 *   s2  = dispatch jump table base
 *   s3  = current frame base (&R[0])
 *   s4  = current constants array
 *   s5  = globals table
 *   s6  = current CallInfo
 *   s7  = current proto descriptor
 *   s8  = intern table
 *   s10 = current bytecode instruction word
 *   s11 = heap bump pointer
 */
class RluaBuilder
{
  public:
    RluaBuilder(const vm::rlua::Module &module, DispatchKind kind)
        : as_(kTextBase), data_(kDataBase), rt_(as_, data_), kind_(kind)
    {
        serialized_ = serializeRluaModule(data_, module);
        dispatch_ = as_.newLabel("dispatch");
        exit_ = as_.newLabel("exit_program");
        for (unsigned n = 0; n < vm::rlua::kNumOps; ++n)
            handlers_[n] = as_.newLabel(
                std::string("op_") + vm::rlua::opName(Op(n)));
        for (size_t n = 0; n < builtinLabels_.size(); ++n)
            builtinLabels_[n] = as_.newLabel("builtin_" + std::to_string(n));
    }

    GuestProgram
    build()
    {
        emitEntry();
        if (kind_ != DispatchKind::Threaded) {
            rangeStart_.push_back(as_.newLabel());
            as_.bind(rangeStart_.back());
            emitDispatcher();
        }
        emitHandlers();
        emitBuiltins();
        emitExit();
        rt_.emit();

        GuestProgram out;
        out.text = as_.finish();
        out.dataBase = data_.base();

        // Patch the jump table with the final handler addresses.
        for (unsigned n = 0; n < vm::rlua::kNumOps; ++n) {
            data_.write64(serialized_.jumpTable + n * 8,
                          as_.address(handlers_[n]));
        }
        out.data = data_.segments();
        out.dataEnd = data_.end();

        // Dispatcher metadata for Figures 2 and 3 and for VBBI.
        for (size_t n = 0; n < rangeStart_.size(); ++n) {
            uint64_t lo = as_.address(rangeStart_[n]);
            uint64_t hi = as_.address(rangeEnd_[n]);
            out.meta.dispatchRanges.push_back({lo, hi});
        }
        for (Label l : jumpPcs_) {
            uint64_t pc = as_.address(l);
            out.meta.dispatchJumpPcs.insert(pc);
            out.meta.vbbiHints[pc] = t1; // t1 holds the decoded opcode
        }
        return out;
    }

  private:
    // --- common emission helpers -------------------------------------------

    /** dst = &R[A] (A field of s10). */
    void
    emitRaAddr(uint8_t dst)
    {
        as_.srli(dst, s10, 6);
        as_.andi(dst, dst, 255);
        as_.slli(dst, dst, 4);
        as_.add(dst, dst, s3);
    }

    /** dst = &R[field] for a plain register field at @p shift. */
    void
    emitRegAddr(uint8_t dst, unsigned shift)
    {
        as_.srli(dst, s10, static_cast<int32_t>(shift));
        as_.andi(dst, dst, 255);
        as_.slli(dst, dst, 4);
        as_.add(dst, dst, s3);
    }

    /**
     * dst = address of RK(field) at @p shift (23 for B, 14 for C):
     * registers resolve against s3, constants against s4.
     */
    void
    emitRkAddr(uint8_t dst, uint8_t tmp, unsigned shift)
    {
        as_.srli(dst, s10, static_cast<int32_t>(shift));
        if (shift != 23)
            as_.andi(dst, dst, 511);
        as_.andi(tmp, dst, 256);
        as_.andi(dst, dst, 255);
        as_.slli(dst, dst, 4);
        Label useK = as_.newLabel();
        Label have = as_.newLabel();
        as_.bnez(tmp, useK);
        as_.add(dst, dst, s3);
        as_.j(have);
        as_.bind(useK);
        as_.add(dst, dst, s4);
        as_.bind(have);
    }

    /** vpc += delta (memory-held virtual PC). */
    void
    emitVpcAdd(uint8_t deltaReg, uint8_t tmp)
    {
        as_.ld(tmp, kVmVpc, s0);
        as_.add(tmp, tmp, deltaReg);
        as_.sd(tmp, kVmVpc, s0);
    }

    /** Skip the next bytecode (vpc += 4). */
    void
    emitSkipNext(uint8_t tmp)
    {
        as_.ld(tmp, kVmVpc, s0);
        as_.addi(tmp, tmp, 4);
        as_.sd(tmp, kVmVpc, s0);
    }

    /**
     * The dispatcher (Figure 1(b), or Figure 4 with SCD): fetch the next
     * bytecode into s10, decode, bound-check, jump through the table.
     */
    void
    emitDispatcher()
    {
        // Bytecode fetch (virtual PC lives in the VM struct, as the
        // compiled Lua loop of Figure 1(b) keeps it in memory).
        as_.ld(t5, kVmVpc, s0);
        if (kind_ == DispatchKind::Scd)
            as_.lwOp(s10, 0, t5, /*bank=*/0);
        else
            as_.lwu(s10, 0, t5);
        as_.addi(t5, t5, 4);
        as_.sd(t5, kVmVpc, s0);
        // Mirror Lua's ci->u.l.savedpc bookkeeping on every fetch.
        as_.sd(t5, kVmSavedPc, s0);
        // Debug-hook check (never taken; Lua tests hookmask here).
        as_.lbu(t2, kVmHookMask, s0);
        as_.bnez(t2, rt_.trap);
        if (kind_ == DispatchKind::Scd)
            as_.bop(0); // fast path: JTE hit redirects straight away
        // Slow path: decode, bound check, table load, indirect jump.
        as_.andi(t1, s10, 63);
        as_.sltiu(t2, t1, vm::rlua::kNumOps);
        as_.beqz(t2, rt_.trap);
        as_.slli(t3, t1, 3);
        as_.add(t3, t3, s2);
        as_.ld(t4, 0, t3);
        Label jumpPc = as_.newLabel();
        as_.bind(jumpPc);
        jumpPcs_.push_back(jumpPc);
        if (kind_ == DispatchKind::Scd)
            as_.jru(t4, /*bank=*/0);
        else
            as_.jalr(zero, t4, 0);
        Label end = as_.newLabel();
        as_.bind(end);
        rangeEnd_.push_back(end);
    }

    /** Handler epilogue: return to dispatch per the chosen variant. */
    void
    emitNext()
    {
        if (kind_ == DispatchKind::Threaded) {
            rangeStart_.push_back(as_.newLabel());
            as_.bind(rangeStart_.back());
            emitDispatcher();
        } else {
            as_.j(dispatch_);
        }
    }

    // --- program skeleton -----------------------------------------------------

    void
    emitEntry()
    {
        as_.li(sp, kNativeStackTop);
        as_.li(s8, static_cast<int64_t>(data_.internTable()));
        as_.li(s11, kHeapBase);
        as_.li(s5, static_cast<int64_t>(serialized_.globalsTable));
        as_.li(s0, static_cast<int64_t>(serialized_.vmStruct));
        as_.li(s2, static_cast<int64_t>(serialized_.jumpTable));
        as_.li(s6, kCallInfoBase);
        as_.li(s3, kValueStackBase);
        as_.li(s7, static_cast<int64_t>(serialized_.protoDescs[0]));
        as_.ld(s4, kProtoConsts, s7);
        as_.ld(t0, kProtoCode, s7);
        as_.sd(t0, kVmVpc, s0);
        if (kind_ == DispatchKind::Scd) {
            as_.li(t0, 63);
            as_.setmask(t0, 0);
        }
        if (kind_ != DispatchKind::Threaded) {
            as_.bind(dispatch_);
        }
        // In the threaded variant fall through into the first dispatcher
        // copy, which emitHandlers()' first emitNext() provides via the
        // entry dispatcher below.
        if (kind_ == DispatchKind::Threaded) {
            rangeStart_.push_back(as_.newLabel());
            as_.bind(rangeStart_.back());
            emitDispatcher();
        }
    }

    void
    emitExit()
    {
        as_.bind(exit_);
        if (kind_ == DispatchKind::Scd)
            as_.jteFlush();
        as_.li(a0, 0);
        as_.li(a7, static_cast<int64_t>(cpu::Syscall::Exit));
        as_.ecall();
    }

    // --- handlers ---------------------------------------------------------------

    void
    emitHandlers()
    {
        emitMove();
        emitLoadK();
        emitLoadBool();
        emitLoadNil();
        emitGetTabUp();
        emitGetTable();
        emitSetTabUp();
        emitSetTable();
        emitNewTable();
        emitArith(Op::ADD);
        emitArith(Op::SUB);
        emitArith(Op::MUL);
        emitArith(Op::MOD);
        emitArith(Op::DIV);
        emitArith(Op::IDIV);
        emitUnm();
        emitNot();
        emitLen();
        emitConcat();
        emitJmp();
        emitCompare(Op::EQ);
        emitCompare(Op::LT);
        emitCompare(Op::LE);
        emitTest();
        emitCall();
        emitReturn();
        emitForLoop();
        emitForPrep();
        emitClosure();
        // Every unimplemented opcode routes to the runtime trap.
        static const Op implemented[] = {
            Op::MOVE, Op::LOADK, Op::LOADBOOL, Op::LOADNIL, Op::GETTABUP,
            Op::GETTABLE, Op::SETTABUP, Op::SETTABLE, Op::NEWTABLE,
            Op::ADD, Op::SUB, Op::MUL, Op::MOD, Op::DIV, Op::IDIV,
            Op::UNM, Op::NOT, Op::LEN, Op::CONCAT, Op::JMP, Op::EQ,
            Op::LT, Op::LE, Op::TEST, Op::CALL, Op::RETURN, Op::FORLOOP,
            Op::FORPREP, Op::CLOSURE,
        };
        for (unsigned n = 0; n < vm::rlua::kNumOps; ++n) {
            bool done = false;
            for (Op op : implemented)
                done = done || static_cast<unsigned>(op) == n;
            if (!done) {
                as_.bind(handlers_[n]);
                as_.j(rt_.trap);
            }
        }
    }

    void
    bindHandler(Op op)
    {
        as_.bind(handlers_[static_cast<unsigned>(op)]);
    }

    void
    emitMove()
    {
        bindHandler(Op::MOVE);
        emitRaAddr(t5);
        emitRegAddr(t1, 23);
        as_.ld(t2, 0, t1);
        as_.ld(t3, 8, t1);
        as_.sd(t2, 0, t5);
        as_.sd(t3, 8, t5);
        emitNext();
    }

    void
    emitLoadK()
    {
        bindHandler(Op::LOADK);
        emitRaAddr(t5);
        as_.srli(t1, s10, 14); // Bx
        as_.slli(t1, t1, 4);
        as_.add(t1, t1, s4);
        as_.ld(t2, 0, t1);
        as_.ld(t3, 8, t1);
        as_.sd(t2, 0, t5);
        as_.sd(t3, 8, t5);
        emitNext();
    }

    void
    emitLoadBool()
    {
        bindHandler(Op::LOADBOOL);
        emitRaAddr(t5);
        as_.srli(t1, s10, 23);
        as_.andi(t1, t1, 1);
        as_.addi(t1, t1, kTagFalse); // 1 -> True(2), 0 -> False(1)
        as_.sd(t1, 0, t5);
        as_.sd(zero, 8, t5);
        // C != 0: skip the next instruction.
        as_.srli(t1, s10, 14);
        as_.andi(t1, t1, 511);
        Label noSkip = as_.newLabel();
        as_.beqz(t1, noSkip);
        emitSkipNext(t2);
        as_.bind(noSkip);
        emitNext();
    }

    void
    emitLoadNil()
    {
        bindHandler(Op::LOADNIL);
        emitRaAddr(t5);
        as_.sd(zero, 0, t5);
        as_.sd(zero, 8, t5);
        emitNext();
    }

    void
    emitGetTabUp()
    {
        bindHandler(Op::GETTABUP);
        emitRkAddr(t1, t2, 14); // key = RK(C)
        as_.mv(a0, s5);
        as_.ld(a1, 0, t1);
        as_.ld(a2, 8, t1);
        as_.call(rt_.tableGet);
        emitRaAddr(t5);
        as_.sd(a0, 0, t5);
        as_.sd(a1, 8, t5);
        emitNext();
    }

    void
    emitGetTable()
    {
        bindHandler(Op::GETTABLE);
        emitRegAddr(t1, 23); // R[B]: the table
        as_.ld(t2, 0, t1);
        as_.li(t3, kTagTab);
        as_.bne(t2, t3, rt_.trap);
        as_.ld(a0, 8, t1);
        emitRkAddr(t1, t2, 14); // key = RK(C)
        as_.ld(a1, 0, t1);
        as_.ld(a2, 8, t1);
        // Inline array-part fast path (Lua's luaV_fastget).
        Label generic = as_.newLabel();
        Label storeRes = as_.newLabel();
        as_.li(t3, kTagInt);
        as_.bne(a1, t3, generic);
        as_.ld(t4, kTabArrSize, a0);
        as_.addi(t6, a2, -1);
        as_.bgeu(t6, t4, generic);
        as_.ld(t4, kTabArrPtr, a0);
        as_.slli(t6, t6, 4);
        as_.add(t4, t4, t6);
        as_.ld(a0, 0, t4);
        as_.ld(a1, 8, t4);
        as_.j(storeRes);
        as_.bind(generic);
        as_.call(rt_.tableGet);
        as_.bind(storeRes);
        emitRaAddr(t5);
        as_.sd(a0, 0, t5);
        as_.sd(a1, 8, t5);
        emitNext();
    }

    void
    emitSetTabUp()
    {
        bindHandler(Op::SETTABUP);
        emitRkAddr(t1, t2, 14); // key = RK(C)
        as_.ld(a1, 0, t1);
        as_.ld(a2, 8, t1);
        emitRkAddr(t1, t2, 23); // value = RK(B)
        as_.ld(a3, 0, t1);
        as_.ld(a4, 8, t1);
        as_.mv(a0, s5);
        as_.call(rt_.tableSet);
        emitNext();
    }

    void
    emitSetTable()
    {
        bindHandler(Op::SETTABLE);
        emitRaAddr(t5); // R[A]: the table
        as_.ld(t2, 0, t5);
        as_.li(t3, kTagTab);
        as_.bne(t2, t3, rt_.trap);
        as_.ld(a0, 8, t5);
        emitRkAddr(t1, t2, 23); // key = RK(B)
        as_.ld(a1, 0, t1);
        as_.ld(a2, 8, t1);
        emitRkAddr(t1, t2, 14); // value = RK(C)
        as_.ld(a3, 0, t1);
        as_.ld(a4, 8, t1);
        // Inline in-range array store (Lua's luaV_fastset).
        Label generic = as_.newLabel();
        Label done = as_.newLabel();
        as_.li(t3, kTagInt);
        as_.bne(a1, t3, generic);
        as_.ld(t4, kTabArrSize, a0);
        as_.addi(t6, a2, -1);
        as_.bgeu(t6, t4, generic);
        as_.ld(t4, kTabArrPtr, a0);
        as_.slli(t6, t6, 4);
        as_.add(t4, t4, t6);
        as_.sd(a3, 0, t4);
        as_.sd(a4, 8, t4);
        as_.j(done);
        as_.bind(generic);
        as_.call(rt_.tableSet);
        as_.bind(done);
        emitNext();
    }

    void
    emitNewTable()
    {
        bindHandler(Op::NEWTABLE);
        as_.call(rt_.tableNew);
        emitRaAddr(t5);
        as_.li(t1, kTagTab);
        as_.sd(t1, 0, t5);
        as_.sd(a0, 8, t5);
        emitNext();
    }

    /**
     * Arithmetic handler with the integer fast path inline (the common
     * case the paper's handlers optimize for) and the mixed/float slow
     * path in the shared runtime.
     */
    void
    emitArith(Op op)
    {
        bindHandler(op);
        emitRkAddr(t1, t3, 23);
        emitRkAddr(t2, t3, 14);
        as_.ld(t3, 0, t1);  // tagL
        as_.ld(a2, 8, t1);  // payL
        as_.ld(t4, 0, t2);  // tagR
        as_.ld(a4, 8, t2);  // payR
        Label slow = as_.newLabel();
        Label store = as_.newLabel();
        as_.li(t6, kTagInt);

        if (op != Op::DIV) {
            // Integer fast path.
            as_.bne(t3, t6, slow);
            as_.bne(t4, t6, slow);
            switch (op) {
              case Op::ADD:
                as_.add(a1, a2, a4);
                break;
              case Op::SUB:
                as_.sub(a1, a2, a4);
                break;
              case Op::MUL:
                as_.mul(a1, a2, a4);
                break;
              case Op::IDIV: {
                as_.beqz(a4, rt_.trap); // division by zero
                as_.div(a1, a2, a4);
                as_.rem(t0, a2, a4);
                Label ok = as_.newLabel();
                as_.beqz(t0, ok);
                as_.xor_(t0, a2, a4);
                as_.bgez(t0, ok);
                as_.addi(a1, a1, -1); // floor adjustment
                as_.bind(ok);
                break;
              }
              case Op::MOD: {
                as_.beqz(a4, rt_.trap);
                as_.rem(a1, a2, a4);
                Label ok = as_.newLabel();
                as_.beqz(a1, ok);
                as_.xor_(t0, a1, a4);
                as_.bgez(t0, ok);
                as_.add(a1, a1, a4); // sign follows the divisor
                as_.bind(ok);
                break;
              }
              default:
                break;
            }
            as_.mv(a0, t6); // result tag: int
            as_.j(store);
        }

        // Mixed / float path, inlined like Lua's luai_num* macros; values
        // that are not numbers at all fall to the cold metamethod stub.
        as_.bind(slow);
        Label metamethod = as_.newLabel();
        auto numericCheck = [&](uint8_t tag) {
            as_.addi(t0, tag, -kTagInt);
            as_.sltiu(t0, t0, 2);
            as_.beqz(t0, metamethod);
        };
        numericCheck(t3);
        numericCheck(t4);
        {
            Label lFloat = as_.newLabel();
            Label lDone = as_.newLabel();
            as_.bne(t3, t6, lFloat);
            as_.fcvtDL(0, a2);
            as_.j(lDone);
            as_.bind(lFloat);
            as_.fmvDX(0, a2);
            as_.bind(lDone);
            Label rFloat = as_.newLabel();
            Label rDone = as_.newLabel();
            as_.bne(t4, t6, rFloat);
            as_.fcvtDL(1, a4);
            as_.j(rDone);
            as_.bind(rFloat);
            as_.fmvDX(1, a4);
            as_.bind(rDone);
        }
        auto floorF2 = [&] {
            // f2 = floor(f2), via truncate-and-adjust.
            Label noAdjust = as_.newLabel();
            as_.fcvtLD(t0, 2);
            as_.fcvtDL(3, t0);
            as_.fle(t1, 3, 2);
            as_.bnez(t1, noAdjust);
            as_.li(t2, 1);
            as_.fcvtDL(4, t2);
            as_.fsub(3, 3, 4);
            as_.bind(noAdjust);
            as_.fmvXD(t0, 3);
            as_.fmvDX(2, t0);
        };
        switch (op) {
          case Op::ADD:
            as_.fadd(2, 0, 1);
            break;
          case Op::SUB:
            as_.fsub(2, 0, 1);
            break;
          case Op::MUL:
            as_.fmul(2, 0, 1);
            break;
          case Op::DIV:
            as_.fdiv(2, 0, 1);
            break;
          case Op::IDIV:
            as_.fdiv(2, 0, 1);
            floorF2();
            break;
          case Op::MOD:
            // r = a - floor(a/b) * b
            as_.fdiv(2, 0, 1);
            floorF2();
            as_.fmul(2, 2, 1);
            as_.fsub(2, 0, 2);
            break;
          default:
            panic("not an arith op");
        }
        as_.fmvXD(a1, 2);
        as_.li(a0, kTagFloat);

        as_.bind(store);
        emitRaAddr(t5);
        as_.sd(a0, 0, t5);
        as_.sd(a1, 8, t5);
        emitNext();

        // Cold stub mirroring Lua's luaT_trybinTM metamethod fallback:
        // it re-materializes the operand addresses and event id the way
        // the real fallback would before raising the type error.
        as_.bind(metamethod);
        emitRkAddr(t1, t0, 23);
        emitRkAddr(t2, t0, 14);
        as_.addi(sp, sp, -32);
        as_.sd(t1, 0, sp);
        as_.sd(t2, 8, sp);
        as_.sd(s10, 16, sp);
        as_.li(a0, static_cast<int64_t>(op));
        as_.j(rt_.trap);
    }

    void
    emitUnm()
    {
        bindHandler(Op::UNM);
        emitRegAddr(t1, 23);
        as_.ld(t2, 0, t1);
        as_.ld(t3, 8, t1);
        Label flt = as_.newLabel();
        Label store = as_.newLabel();
        as_.li(t4, kTagInt);
        as_.bne(t2, t4, flt);
        as_.neg(t3, t3);
        as_.j(store);
        as_.bind(flt);
        as_.li(t4, kTagFloat);
        as_.bne(t2, t4, rt_.trap);
        as_.fmvDX(0, t3);
        as_.fneg(0, 0);
        as_.fmvXD(t3, 0);
        as_.bind(store);
        emitRaAddr(t5);
        as_.sd(t2, 0, t5);
        as_.sd(t3, 8, t5);
        emitNext();
    }

    void
    emitNot()
    {
        bindHandler(Op::NOT);
        emitRegAddr(t1, 23);
        as_.ld(t2, 0, t1);
        as_.sltiu(t2, t2, 2); // 1 when falsy (nil or false)
        as_.addi(t2, t2, kTagFalse);
        emitRaAddr(t5);
        as_.sd(t2, 0, t5);
        as_.sd(zero, 8, t5);
        emitNext();
    }

    void
    emitLen()
    {
        bindHandler(Op::LEN);
        emitRegAddr(t1, 23);
        as_.ld(t2, 0, t1);
        as_.ld(t3, 8, t1);
        Label isTab = as_.newLabel();
        Label store = as_.newLabel();
        as_.li(t4, kTagStr);
        as_.bne(t2, t4, isTab);
        as_.ld(t3, kStrLen, t3);
        as_.j(store);
        as_.bind(isTab);
        as_.li(t4, kTagTab);
        as_.bne(t2, t4, rt_.trap);
        as_.ld(t3, kTabArrSize, t3);
        as_.bind(store);
        emitRaAddr(t5);
        as_.li(t4, kTagInt);
        as_.sd(t4, 0, t5);
        as_.sd(t3, 8, t5);
        emitNext();
    }

    void
    emitConcat()
    {
        bindHandler(Op::CONCAT);
        emitRegAddr(t1, 23);
        as_.ld(t2, 0, t1);
        as_.li(t4, kTagStr);
        as_.bne(t2, t4, rt_.trap);
        as_.ld(a0, 8, t1);
        emitRegAddr(t1, 14);
        as_.ld(t2, 0, t1);
        as_.bne(t2, t4, rt_.trap);
        as_.ld(a1, 8, t1);
        as_.call(rt_.concat);
        emitRaAddr(t5);
        as_.li(t1, kTagStr);
        as_.sd(t1, 0, t5);
        as_.sd(a0, 8, t5);
        emitNext();
    }

    /** vpc += sBx * 4 (shared by JMP / FORLOOP / FORPREP). */
    void
    emitJumpBySBx(uint8_t tmpA, uint8_t tmpB)
    {
        as_.srli(tmpA, s10, 14);
        as_.li(tmpB, vm::rlua::kSBxBias);
        as_.sub(tmpA, tmpA, tmpB);
        as_.slli(tmpA, tmpA, 2);
        emitVpcAdd(tmpA, tmpB);
    }

    void
    emitJmp()
    {
        bindHandler(Op::JMP);
        emitJumpBySBx(t1, t2);
        emitNext();
    }

    /**
     * EQ/LT/LE A B C: when (RK(B) op RK(C)) != A, skip the following JMP.
     * Numbers compare numerically across int/float; strings compare
     * lexicographically (LT/LE) or by identity (EQ — interning makes
     * content equality pointer equality).
     */
    void
    emitCompare(Op op)
    {
        bindHandler(op);
        emitRkAddr(t1, t3, 23);
        emitRkAddr(t2, t3, 14);
        as_.ld(t3, 0, t1); // tagL
        as_.ld(a2, 8, t1); // payL
        as_.ld(t4, 0, t2); // tagR
        as_.ld(a4, 8, t2); // payR

        Label slow = as_.newLabel();
        Label decide = as_.newLabel();
        as_.li(t6, kTagInt);
        as_.bne(t3, t6, slow);
        as_.bne(t4, t6, slow);
        switch (op) {
          case Op::EQ:
            as_.xor_(a0, a2, a4);
            as_.seqz(a0, a0);
            break;
          case Op::LT:
            as_.slt(a0, a2, a4);
            break;
          default: // LE
            as_.slt(a0, a4, a2);
            as_.xori(a0, a0, 1);
            break;
        }
        as_.j(decide);

        as_.bind(slow);
        {
            // Both numeric (int/float mix) -> float compare.
            Label notNumeric = as_.newLabel();
            Label strings = as_.newLabel();
            auto numericCheck = [&](uint8_t tag) {
                as_.addi(t0, tag, -kTagInt);
                as_.sltiu(t0, t0, 2); // tag in {Int, Float}
            };
            numericCheck(t3);
            as_.beqz(t0, notNumeric);
            numericCheck(t4);
            as_.beqz(t0, notNumeric);
            // Convert both sides to double.
            Label lFloat = as_.newLabel();
            Label lDone = as_.newLabel();
            as_.li(t0, kTagInt);
            as_.bne(t3, t0, lFloat);
            as_.fcvtDL(0, a2);
            as_.j(lDone);
            as_.bind(lFloat);
            as_.fmvDX(0, a2);
            as_.bind(lDone);
            Label rFloat = as_.newLabel();
            Label rDone = as_.newLabel();
            as_.bne(t4, t0, rFloat);
            as_.fcvtDL(1, a4);
            as_.j(rDone);
            as_.bind(rFloat);
            as_.fmvDX(1, a4);
            as_.bind(rDone);
            switch (op) {
              case Op::EQ:
                as_.feq(a0, 0, 1);
                break;
              case Op::LT:
                as_.flt(a0, 0, 1);
                break;
              default:
                as_.fle(a0, 0, 1);
                break;
            }
            as_.j(decide);

            as_.bind(notNumeric);
            if (op == Op::EQ) {
                // Same tag: identity comparison covers nil/bool/str/tab/
                // fun (strings are interned). Different tags: not equal.
                Label differ = as_.newLabel();
                as_.bne(t3, t4, differ);
                as_.xor_(a0, a2, a4);
                as_.seqz(a0, a0);
                // nil/false/true ignore payloads (always zero) -- fine.
                as_.j(decide);
                as_.bind(differ);
                as_.li(a0, 0);
                as_.j(decide);
            } else {
                // Strings compare lexicographically.
                as_.li(t0, kTagStr);
                as_.bne(t3, t0, strings); // reuse label as trap route
                as_.bne(t4, t0, strings);
                as_.mv(a0, a2);
                as_.mv(a1, a4);
                as_.call(rt_.strCmp);
                if (op == Op::LT)
                    as_.slti(a0, a0, 0);
                else
                    as_.slti(a0, a0, 1);
                as_.j(decide);
                as_.bind(strings);
                as_.j(rt_.trap);
            }
        }

        as_.bind(decide);
        as_.srli(t1, s10, 6);
        as_.andi(t1, t1, 255); // A flag
        Label fallthrough = as_.newLabel();
        as_.beq(a0, t1, fallthrough);
        emitSkipNext(t2);
        as_.bind(fallthrough);
        emitNext();
    }

    void
    emitTest()
    {
        bindHandler(Op::TEST);
        emitRaAddr(t5);
        as_.ld(t1, 0, t5);
        as_.sltiu(t1, t1, 2);
        as_.xori(t1, t1, 1); // truthiness
        as_.srli(t2, s10, 14);
        as_.andi(t2, t2, 1); // C
        Label fallthrough = as_.newLabel();
        as_.beq(t1, t2, fallthrough);
        emitSkipNext(t3);
        as_.bind(fallthrough);
        emitNext();
    }

    void
    emitCall()
    {
        bindHandler(Op::CALL);
        emitRaAddr(t5);
        as_.ld(t1, 0, t5);
        as_.li(t2, kTagFun);
        as_.bne(t1, t2, rt_.trap);
        as_.ld(t2, 8, t5); // proto descriptor
        as_.ld(t3, kProtoKind, t2);
        Label bytecode = as_.newLabel();
        as_.beqz(t3, bytecode);
        emitBuiltinCall(t2, t5);
        as_.bind(bytecode);
        // Push a CallInfo frame.
        as_.addi(s6, s6, kCiSize);
        as_.ld(t3, kVmVpc, s0);
        as_.sd(t3, kCiSavedVpc, s6);
        as_.sd(s3, kCiSavedBase, s6);
        as_.sd(s7, kCiSavedProto, s6);
        as_.srli(t3, s10, 6);
        as_.andi(t3, t3, 255); // return register A
        as_.srli(t4, s10, 14);
        as_.andi(t4, t4, 511);
        as_.sltiu(t4, t4, 2);
        as_.xori(t4, t4, 1); // wantResult = (C >= 2)
        as_.slli(t4, t4, 8);
        as_.or_(t3, t3, t4);
        as_.sd(t3, kCiRetInfo, s6);
        // Activate the callee frame.
        as_.srli(t1, s10, 23);
        as_.addi(t1, t1, -1); // nargs = B - 1
        as_.ld(t4, kProtoNumParams, t2);
        as_.addi(s3, t5, 16); // new base = &R[A+1]
        // Value-stack overflow guard (Lua's luaD_growstack check).
        as_.li(t6, kCallInfoBase - 0x10000);
        as_.bgeu(s3, t6, rt_.trap);
        as_.mv(s7, t2);
        as_.ld(s4, kProtoConsts, s7);
        as_.ld(t6, kProtoCode, s7);
        as_.sd(t6, kVmVpc, s0);
        // Missing arguments read as nil.
        Label fill = as_.newLabel();
        Label fillDone = as_.newLabel();
        as_.bind(fill);
        as_.bge(t1, t4, fillDone);
        as_.slli(t6, t1, 4);
        as_.add(t6, t6, s3);
        as_.sd(zero, 0, t6);
        as_.sd(zero, 8, t6);
        as_.addi(t1, t1, 1);
        as_.j(fill);
        as_.bind(fillDone);
        emitNext();
    }

    /** Builtin-call path of the CALL handler; @p desc / @p raAddr regs. */
    void
    emitBuiltinCall(uint8_t desc, uint8_t raAddr)
    {
        as_.ld(t3, kProtoBuiltinId, desc);
        // Spill &R[A]; the builtin bodies call runtime subroutines.
        as_.addi(sp, sp, -16);
        as_.sd(raAddr, 0, sp);
        for (unsigned id = 0; id < builtinLabels_.size(); ++id) {
            as_.li(t4, static_cast<int64_t>(id));
            as_.beq(t3, t4, builtinLabels_[id]);
        }
        as_.j(rt_.trap);
    }

    /**
     * Builtin bodies. Entered with &R[A] spilled at 0(sp); they must pop
     * that slot, store their result to R[A], and fall back to dispatch.
     */
    void
    emitBuiltins()
    {
        // Result store shared by every builtin: a0 = tag, a1 = payload.
        Label storeResult = as_.newLabel("builtin_store");

        // print(v)
        as_.bind(builtinLabels_[size_t(vm::Builtin::Print)]);
        as_.ld(t0, 0, sp);
        as_.ld(a0, 16, t0); // R[A+1] tag
        as_.ld(a1, 24, t0);
        as_.call(rt_.printValue);
        as_.li(a0, '\n');
        as_.li(a7, static_cast<int64_t>(cpu::Syscall::PutChar));
        as_.ecall();
        as_.li(a0, kTagNil);
        as_.li(a1, 0);
        as_.j(storeResult);

        // sqrt(x)
        as_.bind(builtinLabels_[size_t(vm::Builtin::Sqrt)]);
        as_.ld(t0, 0, sp);
        as_.ld(t1, 16, t0);
        as_.ld(t2, 24, t0);
        {
            Label flt = as_.newLabel();
            Label go = as_.newLabel();
            as_.li(t3, kTagInt);
            as_.bne(t1, t3, flt);
            as_.fcvtDL(0, t2);
            as_.j(go);
            as_.bind(flt);
            as_.li(t3, kTagFloat);
            as_.bne(t1, t3, rt_.trap);
            as_.fmvDX(0, t2);
            as_.bind(go);
            as_.fsqrt(0, 0);
            as_.fmvXD(a1, 0);
            as_.li(a0, kTagFloat);
            as_.j(storeResult);
        }

        // strsub(s, i, j)
        as_.bind(builtinLabels_[size_t(vm::Builtin::StrSub)]);
        as_.ld(t0, 0, sp);
        as_.ld(t1, 16, t0);
        as_.li(t2, kTagStr);
        as_.bne(t1, t2, rt_.trap);
        as_.ld(a0, 24, t0);
        as_.ld(a1, 40, t0); // R[A+2] payload (int checked loosely)
        as_.ld(a2, 56, t0); // R[A+3] payload
        as_.call(rt_.strSub);
        as_.mv(a1, a0);
        as_.li(a0, kTagStr);
        as_.j(storeResult);

        // strbyte(s, i)
        as_.bind(builtinLabels_[size_t(vm::Builtin::StrByte)]);
        as_.ld(t0, 0, sp);
        as_.ld(t1, 16, t0);
        as_.li(t2, kTagStr);
        as_.bne(t1, t2, rt_.trap);
        as_.ld(t3, 24, t0); // string object
        as_.ld(t4, 40, t0); // index
        {
            Label nil = as_.newLabel();
            as_.ld(t5, kStrLen, t3);
            as_.addi(t6, t4, -1);
            as_.bgeu(t6, t5, nil); // i < 1 or i > len
            as_.add(t3, t3, t6);
            as_.lbu(a1, kStrBytes, t3);
            as_.li(a0, kTagInt);
            as_.j(storeResult);
            as_.bind(nil);
            as_.li(a0, kTagNil);
            as_.li(a1, 0);
            as_.j(storeResult);
        }

        // strchar(i)
        as_.bind(builtinLabels_[size_t(vm::Builtin::StrChar)]);
        as_.ld(t0, 0, sp);
        as_.ld(t1, 24, t0);
        as_.addi(sp, sp, -16);
        as_.sb(t1, 0, sp);
        as_.mv(a0, sp);
        as_.li(a1, 1);
        as_.call(rt_.internBytes);
        as_.addi(sp, sp, 16);
        as_.mv(a1, a0);
        as_.li(a0, kTagStr);
        as_.j(storeResult);

        // tofloat(x)
        as_.bind(builtinLabels_[size_t(vm::Builtin::ToFloat)]);
        as_.ld(t0, 0, sp);
        as_.ld(t1, 16, t0);
        as_.ld(t2, 24, t0);
        {
            Label flt = as_.newLabel();
            as_.li(t3, kTagInt);
            as_.bne(t1, t3, flt);
            as_.fcvtDL(0, t2);
            as_.fmvXD(a1, 0);
            as_.li(a0, kTagFloat);
            as_.j(storeResult);
            as_.bind(flt);
            as_.li(t3, kTagFloat);
            as_.bne(t1, t3, rt_.trap);
            as_.mv(a1, t2);
            as_.li(a0, kTagFloat);
            as_.j(storeResult);
        }

        as_.bind(storeResult);
        as_.ld(t0, 0, sp);
        as_.addi(sp, sp, 16);
        as_.sd(a0, 0, t0);
        as_.sd(a1, 8, t0);
        emitNext();
    }

    void
    emitReturn()
    {
        bindHandler(Op::RETURN);
        // Result into a3/a4 (nil when B < 2).
        as_.li(a3, kTagNil);
        as_.li(a4, 0);
        as_.srli(t1, s10, 23);
        Label noValue = as_.newLabel();
        as_.sltiu(t2, t1, 2);
        as_.bnez(t2, noValue);
        emitRaAddr(t5);
        as_.ld(a3, 0, t5);
        as_.ld(a4, 8, t5);
        as_.bind(noValue);
        // Returning from the main chunk ends the program.
        as_.li(t2, kCallInfoBase);
        as_.beq(s6, t2, exit_);
        // Pop the CallInfo.
        as_.ld(t3, kCiSavedVpc, s6);
        as_.sd(t3, kVmVpc, s0);
        as_.ld(s3, kCiSavedBase, s6);
        as_.ld(s7, kCiSavedProto, s6);
        as_.ld(s4, kProtoConsts, s7);
        as_.ld(t4, kCiRetInfo, s6);
        as_.addi(s6, s6, -kCiSize);
        as_.srli(t6, t4, 8);
        Label store = as_.newLabel();
        as_.bnez(t6, store);
        emitNext();
        as_.bind(store);
        as_.andi(t4, t4, 255);
        as_.slli(t4, t4, 4);
        as_.add(t4, t4, s3);
        as_.sd(a3, 0, t4);
        as_.sd(a4, 8, t4);
        emitNext();
    }

    void
    emitForPrep()
    {
        bindHandler(Op::FORPREP);
        emitRaAddr(t5); // &R[A]; limit at +16, step at +32
        as_.ld(t1, 0, t5);   // start tag
        as_.ld(t2, 16, t5);  // limit tag
        as_.ld(t3, 32, t5);  // step tag
        as_.li(t6, kTagInt);
        Label floatPath = as_.newLabel();
        Label done = as_.newLabel();
        as_.bne(t1, t6, floatPath);
        as_.bne(t2, t6, floatPath);
        as_.bne(t3, t6, floatPath);
        // Integer loop: start -= step.
        as_.ld(t1, 8, t5);
        as_.ld(t3, 40, t5);
        as_.sub(t1, t1, t3);
        as_.sd(t1, 8, t5);
        as_.j(done);
        as_.bind(floatPath);
        {
            // Convert all three control values to float, then subtract.
            auto toFloat = [&](int off) {
                Label isInt = as_.newLabel();
                Label next = as_.newLabel();
                as_.ld(t1, off, t5);
                as_.ld(t2, off + 8, t5);
                as_.li(t6, kTagInt);
                as_.beq(t1, t6, isInt);
                as_.li(t6, kTagFloat);
                as_.bne(t1, t6, rt_.trap);
                as_.j(next);
                as_.bind(isInt);
                as_.fcvtDL(0, t2);
                as_.fmvXD(t2, 0);
                as_.li(t6, kTagFloat);
                as_.sd(t6, off, t5);
                as_.sd(t2, off + 8, t5);
                as_.bind(next);
            };
            toFloat(0);
            toFloat(16);
            toFloat(32);
            as_.ld(t1, 8, t5);
            as_.ld(t3, 40, t5);
            as_.fmvDX(0, t1);
            as_.fmvDX(1, t3);
            as_.fsub(0, 0, 1);
            as_.fmvXD(t1, 0);
            as_.sd(t1, 8, t5);
        }
        as_.bind(done);
        emitJumpBySBx(t1, t2);
        emitNext();
    }

    void
    emitForLoop()
    {
        bindHandler(Op::FORLOOP);
        emitRaAddr(t5);
        as_.ld(t1, 0, t5); // control tag (int or float after FORPREP)
        as_.li(t6, kTagInt);
        Label floatPath = as_.newLabel();
        Label continueLoop = as_.newLabel();
        Label exitLoop = as_.newLabel();
        as_.bne(t1, t6, floatPath);
        // Integer loop.
        as_.ld(t2, 8, t5);   // index
        as_.ld(t3, 40, t5);  // step
        as_.add(t2, t2, t3);
        as_.sd(t2, 8, t5);
        as_.ld(t4, 24, t5);  // limit
        {
            Label negStep = as_.newLabel();
            as_.bltz(t3, negStep);
            as_.ble(t2, t4, continueLoop);
            as_.j(exitLoop);
            as_.bind(negStep);
            as_.bge(t2, t4, continueLoop);
            as_.j(exitLoop);
        }
        as_.bind(floatPath);
        as_.ld(t2, 8, t5);
        as_.ld(t3, 40, t5);
        as_.fmvDX(0, t2);
        as_.fmvDX(1, t3);
        as_.fadd(0, 0, 1);
        as_.fmvXD(t2, 0);
        as_.sd(t2, 8, t5);
        as_.ld(t4, 24, t5);
        as_.fmvDX(2, t4);
        {
            Label negStep = as_.newLabel();
            as_.fmvDX(3, zero);
            as_.flt(t1, 1, 3); // step < 0.0 ?
            as_.bnez(t1, negStep);
            as_.fle(t1, 0, 2); // idx <= limit
            as_.bnez(t1, continueLoop);
            as_.j(exitLoop);
            as_.bind(negStep);
            as_.fle(t1, 2, 0); // limit <= idx
            as_.bnez(t1, continueLoop);
            as_.j(exitLoop);
        }
        as_.bind(continueLoop);
        // Copy the control value into the loop variable R[A+3].
        as_.ld(t1, 0, t5);
        as_.ld(t2, 8, t5);
        as_.sd(t1, 48, t5);
        as_.sd(t2, 56, t5);
        emitJumpBySBx(t1, t2);
        as_.bind(exitLoop);
        emitNext();
    }

    void
    emitClosure()
    {
        bindHandler(Op::CLOSURE);
        as_.srli(t1, s10, 14); // Bx = proto index
        as_.slli(t1, t1, 3);
        as_.li(t2, static_cast<int64_t>(serialized_.protoDescTable));
        as_.add(t1, t1, t2);
        as_.ld(t2, 0, t1);
        emitRaAddr(t5);
        as_.li(t1, kTagFun);
        as_.sd(t1, 0, t5);
        as_.sd(t2, 8, t5);
        emitNext();
    }

    Assembler as_;
    DataImage data_;
    RuntimeLib rt_;
    DispatchKind kind_;
    SerializedModule serialized_;
    Label dispatch_;
    Label exit_;
    Label handlers_[vm::rlua::kNumOps];
    std::array<Label, size_t(vm::Builtin::NumBuiltins)> builtinLabels_;
    std::vector<Label> rangeStart_;
    std::vector<Label> rangeEnd_;
    std::vector<Label> jumpPcs_;
};

} // namespace

GuestProgram
buildRluaGuest(const vm::rlua::Module &module, DispatchKind kind)
{
    RluaBuilder builder(module, kind);
    return builder.build();
}

} // namespace scd::guest
