package mir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"xartrek/internal/isa"
)

// Interpreter errors.
var (
	ErrStepLimit   = errors.New("mir: interpreter step limit exceeded")
	ErrOutOfMemory = errors.New("mir: interpreter arena exhausted")
	ErrDivByZero   = errors.New("mir: integer division by zero")
	ErrBadAddress  = errors.New("mir: load/store outside arena")
)

// memBase keeps valid addresses away from zero so that a null pointer
// always faults.
const memBase = 0x10000

// Memory is a flat little-endian arena with a bump allocator, standing
// in for the process address space.
type Memory struct {
	data []byte
	next int
}

// NewMemory allocates an arena of size bytes.
func NewMemory(size int) *Memory {
	return &Memory{data: make([]byte, size)}
}

// Alloc reserves n bytes (8-byte aligned) and returns the address.
func (m *Memory) Alloc(n int) (uint64, error) {
	n = (n + 7) &^ 7
	if m.next+n > len(m.data) {
		return 0, fmt.Errorf("%w: need %d bytes, %d free", ErrOutOfMemory, n, len(m.data)-m.next)
	}
	addr := uint64(memBase + m.next)
	m.next += n
	return addr, nil
}

// Mark returns the current allocation watermark, for frame-scoped
// allocas released by Release.
func (m *Memory) Mark() int { return m.next }

// Release rewinds the allocator to a previous Mark.
func (m *Memory) Release(mark int) { m.next = mark }

func (m *Memory) slice(addr uint64, n int) ([]byte, error) {
	off := int64(addr) - memBase
	if off < 0 || off+int64(n) > int64(len(m.data)) {
		return nil, fmt.Errorf("%w: addr %#x len %d", ErrBadAddress, addr, n)
	}
	return m.data[off : off+int64(n)], nil
}

// Load reads size bytes little-endian from addr.
func (m *Memory) Load(addr uint64, size int) (uint64, error) {
	b, err := m.slice(addr, size)
	if err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint64(b[0]), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	case 8:
		return binary.LittleEndian.Uint64(b), nil
	default:
		return 0, fmt.Errorf("%w: unsupported load size %d", ErrBadAddress, size)
	}
}

// Store writes size bytes little-endian at addr.
func (m *Memory) Store(addr uint64, size int, v uint64) error {
	b, err := m.slice(addr, size)
	if err != nil {
		return err
	}
	switch size {
	case 1:
		b[0] = byte(v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		return fmt.Errorf("%w: unsupported store size %d", ErrBadAddress, size)
	}
	return nil
}

// ExecStats accumulates the dynamic operation mix of a run; this is the
// "profiling step" input for the Xar-Trek cost models.
type ExecStats struct {
	Ops   isa.OpMix
	Steps int64
}

// opKindSlots sizes the dense per-kind counters; isa.OpMove is the
// highest OpKind any opcode maps to (see Opcode.Kind).
const opKindSlots = int(isa.OpMove) + 1

// defaultMaxSteps is the step budget when MaxSteps is unset.
const defaultMaxSteps = 200_000_000

// Interp executes MIR functions against a Memory.
//
// By default Run executes through the compiled register-file engine
// (see compile.go). Set Legacy to force the original tree-walking
// evaluator — the reference implementation the differential tests
// compare against.
type Interp struct {
	Mem *Memory
	// MaxSteps bounds the steps of each Run; <=0 means the default of
	// 200M. Stats keep counting across runs, but every Run gets the
	// full budget.
	MaxSteps int64
	// Legacy forces the tree-walking evaluator instead of the
	// compiled engine.
	Legacy bool

	// ops/steps are the dense stat counters both engines share;
	// Stats materialises them into an ExecStats.
	ops   [opKindSlots]float64
	steps int64
	// limit is the step count at which the current Run stops: the
	// count at entry plus the budget, derived once per entry; both
	// engines (and their phi phases) enforce it.
	limit int64
	// frames pools compiled-engine activation frames.
	frames [][]uint64
}

// NewInterp returns an interpreter with an arena of memSize bytes.
func NewInterp(memSize int) *Interp {
	return &Interp{Mem: NewMemory(memSize)}
}

// Stats returns the accumulated execution statistics.
func (ip *Interp) Stats() ExecStats {
	ops := isa.OpMix{}
	for k, v := range ip.ops {
		if v != 0 {
			ops[isa.OpKind(k)] = v
		}
	}
	return ExecStats{Ops: ops, Steps: ip.steps}
}

// ResetStats clears accumulated statistics.
func (ip *Interp) ResetStats() {
	ip.ops = [opKindSlots]float64{}
	ip.steps = 0
}

// Run executes f with raw-bit arguments, returning the raw-bit result.
func (ip *Interp) Run(f *Function, args ...uint64) (uint64, error) {
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("mir: %s called with %d args, want %d", f.Nam, len(args), len(f.Params))
	}
	// The step budget is derived exactly once per Run entry; the call
	// chain (including phi phases) checks the cumulative ip.steps
	// against the count at entry plus the budget.
	budget := ip.MaxSteps
	if budget <= 0 {
		budget = defaultMaxSteps
	}
	ip.limit = ip.steps + budget
	if ip.limit < ip.steps {
		ip.limit = math.MaxInt64 // the budget overflows the counter
	}
	if ip.Legacy {
		return ip.call(f, args)
	}
	return ip.callCompiled(f, args)
}

// norm canonicalises raw bits for a type (sign-extended I32, masked I1).
func norm(t Type, bits uint64) uint64 {
	switch t {
	case I1:
		return bits & 1
	case I32:
		return uint64(int64(int32(bits)))
	default:
		return bits
	}
}

// callCompiled runs one activation on the compiled engine, compiling
// (or fetching cached code for) f first.
func (ip *Interp) callCompiled(f *Function, args []uint64) (uint64, error) {
	cf, err := Compile(f)
	if err != nil {
		return 0, err
	}
	return ip.exec(cf, args)
}

// getFrame pops a pooled frame of at least n slots.
func (ip *Interp) getFrame(n int) []uint64 {
	if k := len(ip.frames); k > 0 {
		fr := ip.frames[k-1]
		ip.frames = ip.frames[:k-1]
		if cap(fr) >= n {
			return fr[:n]
		}
	}
	return make([]uint64, n)
}

// putFrame returns a frame to the pool.
func (ip *Interp) putFrame(fr []uint64) { ip.frames = append(ip.frames, fr) }

// exec is the compiled engine's dispatch loop: straight-line execution
// over a dense []uint64 frame, with pre-resolved operand slots and
// per-edge phi move lists. The steady-state loop allocates nothing.
func (ip *Interp) exec(cf *CompiledFunc, args []uint64) (uint64, error) {
	if cf.entryPhis {
		return 0, fmt.Errorf("mir: phi in %s has no incoming edge from <entry>", cf.fn.Entry().Nam)
	}
	mark := ip.Mem.Mark()
	defer ip.Mem.Release(mark)

	frame := ip.getFrame(cf.nslots + cf.maxPhi + cf.maxCall)
	defer ip.putFrame(frame)
	copy(frame[:cf.nslots], cf.proto)
	for i, t := range cf.paramTypes {
		frame[i] = norm(t, args[i])
	}
	scratch := frame[cf.nslots : cf.nslots+cf.maxPhi]
	callScratch := frame[cf.nslots+cf.maxPhi:]

	code := cf.code
	pc := int32(0)
	for {
		in := &code[pc]
		if in.op == opTrap {
			// Fall-through off a terminator-less block: not a step, to
			// mirror the tree-walker's accounting.
			return 0, fmt.Errorf("mir: block %s fell through without terminator", cf.trapBlocks[in.imm])
		}
		ip.steps++
		if ip.steps > ip.limit {
			return 0, ErrStepLimit
		}
		ip.ops[in.kind]++
		switch in.op {
		case OpRet:
			if in.a >= 0 {
				return frame[in.a], nil
			}
			return 0, nil
		case OpBr:
			e := &cf.edges[in.edge]
			if err := ip.runEdge(e, frame, scratch); err != nil {
				return 0, err
			}
			pc = e.target
			continue
		case OpCondBr:
			e := &cf.edges[in.edge2]
			if frame[in.a]&1 != 0 {
				e = &cf.edges[in.edge]
			}
			if err := ip.runEdge(e, frame, scratch); err != nil {
				return 0, err
			}
			pc = e.target
			continue
		case OpAdd:
			frame[in.dst] = norm(in.typ, frame[in.a]+frame[in.b])
		case OpSub:
			frame[in.dst] = norm(in.typ, frame[in.a]-frame[in.b])
		case OpMul:
			frame[in.dst] = norm(in.typ, uint64(int64(frame[in.a])*int64(frame[in.b])))
		case OpSDiv:
			if frame[in.b] == 0 {
				return 0, ErrDivByZero
			}
			frame[in.dst] = norm(in.typ, uint64(int64(frame[in.a])/int64(frame[in.b])))
		case OpSRem:
			if frame[in.b] == 0 {
				return 0, ErrDivByZero
			}
			frame[in.dst] = norm(in.typ, uint64(int64(frame[in.a])%int64(frame[in.b])))
		case OpAnd:
			frame[in.dst] = norm(in.typ, frame[in.a]&frame[in.b])
		case OpOr:
			frame[in.dst] = norm(in.typ, frame[in.a]|frame[in.b])
		case OpXor:
			frame[in.dst] = norm(in.typ, frame[in.a]^frame[in.b])
		case OpShl:
			frame[in.dst] = norm(in.typ, uint64(int64(frame[in.a])<<(frame[in.b]&63)))
		case OpLShr:
			frame[in.dst] = norm(in.typ, (frame[in.a]&uint64(in.imm))>>(frame[in.b]&63))
		case OpAShr:
			frame[in.dst] = norm(in.typ, uint64(int64(frame[in.a])>>(frame[in.b]&63)))
		case OpICmp:
			frame[in.dst] = boolBits(cmpInt(in.pred, int64(frame[in.a]), int64(frame[in.b])))
		case OpFCmp:
			frame[in.dst] = boolBits(cmpFloat(in.pred, math.Float64frombits(frame[in.a]), math.Float64frombits(frame[in.b])))
		case OpFAdd:
			frame[in.dst] = math.Float64bits(math.Float64frombits(frame[in.a]) + math.Float64frombits(frame[in.b]))
		case OpFSub:
			frame[in.dst] = math.Float64bits(math.Float64frombits(frame[in.a]) - math.Float64frombits(frame[in.b]))
		case OpFMul:
			frame[in.dst] = math.Float64bits(math.Float64frombits(frame[in.a]) * math.Float64frombits(frame[in.b]))
		case OpFDiv:
			frame[in.dst] = math.Float64bits(math.Float64frombits(frame[in.a]) / math.Float64frombits(frame[in.b]))
		case OpPtrAdd:
			frame[in.dst] = frame[in.a] + uint64(int64(frame[in.b]))
		case OpSelect:
			if frame[in.a]&1 != 0 {
				frame[in.dst] = norm(in.typ, frame[in.b])
			} else {
				frame[in.dst] = norm(in.typ, frame[in.c])
			}
		case OpSExt:
			frame[in.dst] = norm(in.typ, frame[in.a]) // operands already sign-extended
		case OpTrunc:
			frame[in.dst] = norm(in.typ, frame[in.a])
		case OpSIToFP:
			frame[in.dst] = math.Float64bits(float64(int64(frame[in.a])))
		case OpFPToSI:
			frame[in.dst] = norm(in.typ, uint64(int64(math.Float64frombits(frame[in.a]))))
		case OpAlloca:
			addr, err := ip.Mem.Alloc(int(in.imm))
			if err != nil {
				return 0, err
			}
			frame[in.dst] = addr
		case OpLoad:
			v, err := ip.Mem.Load(frame[in.a], int(in.imm))
			if err != nil {
				return 0, err
			}
			frame[in.dst] = norm(in.typ, v)
		case OpStore:
			if err := ip.Mem.Store(frame[in.b], int(in.imm), frame[in.a]); err != nil {
				return 0, err
			}
		case OpCall:
			callArgs := callScratch[:len(in.args)]
			for i, s := range in.args {
				callArgs[i] = frame[s]
			}
			r, err := ip.callCompiled(in.src.Callee, callArgs)
			if err != nil {
				return 0, err
			}
			if in.dst >= 0 {
				frame[in.dst] = norm(in.typ, r)
			}
		default:
			return 0, fmt.Errorf("mir: compiled exec on %s", in.op)
		}
		pc++
	}
}

// runEdge performs one CFG transition's phi moves. All sources are
// read into scratch before any destination is written, preserving the
// simultaneous-assignment semantics of phis; each move is accounted
// and step-limited exactly like the tree-walker's phi phase.
func (ip *Interp) runEdge(e *cEdge, frame, scratch []uint64) error {
	moves := e.moves
	for i, mv := range moves {
		scratch[i] = frame[mv.src]
	}
	for i, mv := range moves {
		ip.steps++
		if ip.steps > ip.limit {
			return ErrStepLimit
		}
		ip.ops[isa.OpMove]++
		frame[mv.dst] = scratch[i]
	}
	return nil
}

// boolBits converts a predicate result to i1 bits.
func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// lshrMask is the operand mask a logical right shift of type t applies
// before shifting; both engines share it so their semantics cannot
// drift apart.
func lshrMask(t Type) uint64 {
	width := uint(t.SizeBytes() * 8)
	if width < 64 {
		return (1 << width) - 1
	}
	return ^uint64(0)
}

// call runs one function activation on the tree-walking engine.
func (ip *Interp) call(f *Function, args []uint64) (uint64, error) {
	if len(f.Blocks) == 0 {
		return 0, fmt.Errorf("mir: call to declaration %s", f.Nam)
	}
	mark := ip.Mem.Mark()
	defer ip.Mem.Release(mark)

	vals := make(map[*Instr]uint64)
	eval := func(v Value) uint64 {
		switch t := v.(type) {
		case *Const:
			return norm(t.Typ, t.Bits)
		case *Param:
			return norm(t.Typ, args[t.Index])
		case *Instr:
			return vals[t]
		default:
			return 0
		}
	}

	var prev *Block
	cur := f.Entry()
	for {
		// Phase 1: evaluate all phis against prev simultaneously.
		var phiVals []uint64
		var phis []*Instr
		for _, in := range cur.Instrs {
			if in.Op != OpPhi {
				break
			}
			found := false
			for ai, from := range in.Targets {
				if from == prev {
					phiVals = append(phiVals, eval(in.Args[ai]))
					found = true
					break
				}
			}
			if !found {
				return 0, fmt.Errorf("mir: phi in %s has no incoming edge from %v", cur.Nam, blockName(prev))
			}
			phis = append(phis, in)
		}
		for i, in := range phis {
			ip.steps++
			if ip.steps > ip.limit {
				return 0, ErrStepLimit
			}
			ip.ops[isa.OpMove]++
			vals[in] = norm(in.Typ, phiVals[i])
		}

		// Phase 2: straight-line execution.
		advance := false
		for _, in := range cur.Instrs[len(phis):] {
			ip.steps++
			if ip.steps > ip.limit {
				return 0, ErrStepLimit
			}
			ip.ops[in.Op.Kind()]++
			switch in.Op {
			case OpRet:
				if len(in.Args) == 1 {
					return eval(in.Args[0]), nil
				}
				return 0, nil
			case OpBr:
				prev, cur = cur, in.Targets[0]
				advance = true
			case OpCondBr:
				if eval(in.Args[0])&1 != 0 {
					prev, cur = cur, in.Targets[0]
				} else {
					prev, cur = cur, in.Targets[1]
				}
				advance = true
			case OpCall:
				callArgs := make([]uint64, len(in.Args))
				for i, a := range in.Args {
					callArgs[i] = eval(a)
				}
				r, err := ip.call(in.Callee, callArgs)
				if err != nil {
					return 0, err
				}
				vals[in] = norm(in.Typ, r)
			case OpAlloca:
				addr, err := ip.Mem.Alloc(in.AllocBytes)
				if err != nil {
					return 0, err
				}
				vals[in] = addr
			case OpLoad:
				v, err := ip.Mem.Load(eval(in.Args[0]), in.Typ.SizeBytes())
				if err != nil {
					return 0, err
				}
				vals[in] = norm(in.Typ, v)
			case OpStore:
				v := eval(in.Args[0])
				if err := ip.Mem.Store(eval(in.Args[1]), in.Args[0].Type().SizeBytes(), v); err != nil {
					return 0, err
				}
			default:
				v, err := evalPure(in, eval)
				if err != nil {
					return 0, err
				}
				vals[in] = v
			}
			if advance {
				break
			}
		}
		if !advance {
			return 0, fmt.Errorf("mir: block %s fell through without terminator", cur.Nam)
		}
	}
}

// evalPure computes side-effect-free operations.
func evalPure(in *Instr, eval func(Value) uint64) (uint64, error) {
	a := func(i int) uint64 { return eval(in.Args[i]) }
	sa := func(i int) int64 { return int64(a(i)) }
	fa := func(i int) float64 { return math.Float64frombits(a(i)) }
	switch in.Op {
	case OpAdd:
		return norm(in.Typ, uint64(sa(0)+sa(1))), nil
	case OpSub:
		return norm(in.Typ, uint64(sa(0)-sa(1))), nil
	case OpMul:
		return norm(in.Typ, uint64(sa(0)*sa(1))), nil
	case OpSDiv:
		if sa(1) == 0 {
			return 0, ErrDivByZero
		}
		return norm(in.Typ, uint64(sa(0)/sa(1))), nil
	case OpSRem:
		if sa(1) == 0 {
			return 0, ErrDivByZero
		}
		return norm(in.Typ, uint64(sa(0)%sa(1))), nil
	case OpAnd:
		return norm(in.Typ, a(0)&a(1)), nil
	case OpOr:
		return norm(in.Typ, a(0)|a(1)), nil
	case OpXor:
		return norm(in.Typ, a(0)^a(1)), nil
	case OpShl:
		return norm(in.Typ, uint64(sa(0)<<(a(1)&63))), nil
	case OpLShr:
		return norm(in.Typ, (a(0)&lshrMask(in.Typ))>>(a(1)&63)), nil
	case OpAShr:
		return norm(in.Typ, uint64(sa(0)>>(a(1)&63))), nil
	case OpICmp:
		x, y := sa(0), sa(1)
		return boolBits(cmpInt(in.Pred, x, y)), nil
	case OpFCmp:
		return boolBits(cmpFloat(in.Pred, fa(0), fa(1))), nil
	case OpFAdd:
		return math.Float64bits(fa(0) + fa(1)), nil
	case OpFSub:
		return math.Float64bits(fa(0) - fa(1)), nil
	case OpFMul:
		return math.Float64bits(fa(0) * fa(1)), nil
	case OpFDiv:
		return math.Float64bits(fa(0) / fa(1)), nil
	case OpPtrAdd:
		return a(0) + uint64(sa(1)), nil
	case OpSelect:
		if a(0)&1 != 0 {
			return norm(in.Typ, a(1)), nil
		}
		return norm(in.Typ, a(2)), nil
	case OpSExt:
		return norm(in.Typ, a(0)), nil // operands already sign-extended
	case OpTrunc:
		return norm(in.Typ, a(0)), nil
	case OpSIToFP:
		return math.Float64bits(float64(sa(0))), nil
	case OpFPToSI:
		return norm(in.Typ, uint64(int64(fa(0)))), nil
	default:
		return 0, fmt.Errorf("mir: evalPure on %s", in.Op)
	}
}

func cmpInt(p CmpPred, x, y int64) bool {
	switch p {
	case CmpEQ:
		return x == y
	case CmpNE:
		return x != y
	case CmpLT:
		return x < y
	case CmpLE:
		return x <= y
	case CmpGT:
		return x > y
	case CmpGE:
		return x >= y
	default:
		return false
	}
}

func cmpFloat(p CmpPred, x, y float64) bool {
	switch p {
	case CmpEQ:
		return x == y
	case CmpNE:
		return x != y
	case CmpLT:
		return x < y
	case CmpLE:
		return x <= y
	case CmpGT:
		return x > y
	case CmpGE:
		return x >= y
	default:
		return false
	}
}

func blockName(b *Block) string {
	if b == nil {
		return "<entry>"
	}
	return b.Nam
}
