package mir

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// runBoth executes f on both engines with fresh interpreters and
// asserts bit-identical results, errors, and statistics.
func runBoth(t *testing.T, f *Function, memSize int, maxSteps int64, args ...uint64) (uint64, error) {
	t.Helper()
	legacy := NewInterp(memSize)
	legacy.Legacy = true
	legacy.MaxSteps = maxSteps
	compiled := NewInterp(memSize)
	compiled.MaxSteps = maxSteps

	lr, lerr := legacy.Run(f, args...)
	cr, cerr := compiled.Run(f, args...)
	if (lerr == nil) != (cerr == nil) {
		t.Fatalf("%s: engines disagree on error: legacy=%v compiled=%v", f.Nam, lerr, cerr)
	}
	if lerr != nil {
		if !errors.Is(cerr, errors.Unwrap(lerr)) && lerr.Error() != cerr.Error() {
			// Same class of failure is enough; exact text may differ.
			t.Logf("%s: error texts differ: legacy=%v compiled=%v", f.Nam, lerr, cerr)
		}
		return 0, cerr
	}
	if lr != cr {
		t.Fatalf("%s: result mismatch: legacy=%#x compiled=%#x", f.Nam, lr, cr)
	}
	ls, cs := legacy.Stats(), compiled.Stats()
	if ls.Steps != cs.Steps {
		t.Fatalf("%s: steps mismatch: legacy=%d compiled=%d", f.Nam, ls.Steps, cs.Steps)
	}
	if !reflect.DeepEqual(ls.Ops, cs.Ops) {
		t.Fatalf("%s: op mix mismatch:\nlegacy=%v\ncompiled=%v", f.Nam, ls.Ops, cs.Ops)
	}
	return cr, nil
}

func TestCompiledMatchesLegacyControlFlow(t *testing.T) {
	m := NewModule("m")
	fact := buildFactorial(t, m)
	fib := buildFib(t, m)
	for n := uint64(0); n <= 12; n++ {
		if _, err := runBoth(t, fact, 1<<12, 0, n); err != nil {
			t.Fatal(err)
		}
		if _, err := runBoth(t, fib, 1<<12, 0, n); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompiledMatchesLegacyMemoryOps(t *testing.T) {
	m := NewModule("m")
	f := buildSumArray(t, m)
	// Identical arenas: seed both engines' memories with the same data
	// via runBoth's per-engine interpreters is impossible, so drive the
	// engines by hand here.
	for _, legacy := range []bool{true, false} {
		ip := NewInterp(1 << 16)
		ip.Legacy = legacy
		addr, err := ip.Mem.Alloc(8 * 64)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		for k := 0; k < 64; k++ {
			v := int64(k*31 - 700)
			want += v
			if err := ip.Mem.Store(addr+uint64(8*k), 8, uint64(v)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ip.Run(f, addr, 64)
		if err != nil {
			t.Fatal(err)
		}
		if int64(got) != want {
			t.Fatalf("legacy=%v: sum = %d, want %d", legacy, int64(got), want)
		}
	}
}

func TestCompileCachesUntilMutation(t *testing.T) {
	m := NewModule("m")
	f := buildFactorial(t, m)
	cf1, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	cf2, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if cf1 != cf2 {
		t.Fatal("Compile recompiled an unmutated function")
	}

	// A structural edit must invalidate the cache.
	helper, err := m.AddFunc("noop", Void)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(helper)
	b.SetBlock(helper.NewBlock("entry"))
	b.Ret(nil)
	if _, err := f.InsertCall(f.Entry(), 0, helper); err != nil {
		t.Fatal(err)
	}
	cf3, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if cf3 == cf1 {
		t.Fatal("Compile returned stale code after InsertCall")
	}

	// The instrumented function still computes factorial.
	ip := NewInterp(1 << 12)
	got, err := ip.Run(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 120 {
		t.Fatalf("instrumented fact(5) = %d, want 120", got)
	}
}

func TestInvalidateForcesRecompile(t *testing.T) {
	m := NewModule("m")
	f := buildFactorial(t, m)
	cf1, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Invalidate()
	cf2, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if cf1 == cf2 {
		t.Fatal("Invalidate did not force recompilation")
	}
}

func TestMalformedBlockFailsOnlyWhenExecuted(t *testing.T) {
	// An abandoned terminator-less block must not poison the function:
	// the tree-walker errors only when such a block is reached, and
	// the compiled engine must match on both sides of that line.
	m := NewModule("m")
	f, err := m.AddFunc("f", I64, I1, I64)
	if err != nil {
		t.Fatal(err)
	}
	entry := f.NewBlock("entry")
	dead := f.NewBlock("dead")
	good := f.NewBlock("good")
	b := NewBuilder(f)
	b.SetBlock(entry)
	b.CondBr(f.Params[0], dead, good)
	b.SetBlock(dead)
	b.Add(f.Params[1], f.Params[1]) // no terminator
	b.SetBlock(good)
	b.Ret(f.Params[1])

	for _, legacy := range []bool{true, false} {
		ip := NewInterp(1 << 10)
		ip.Legacy = legacy
		got, err := ip.Run(f, 0, 42) // takes the good path
		if err != nil {
			t.Fatalf("legacy=%v: good path errored: %v", legacy, err)
		}
		if got != 42 {
			t.Fatalf("legacy=%v: got %d, want 42", legacy, got)
		}
		if _, err := ip.Run(f, 1, 42); err == nil {
			t.Fatalf("legacy=%v: executing the malformed block did not error", legacy)
		}
	}
}

func TestCompileDeclarationFails(t *testing.T) {
	m := NewModule("m")
	f, err := m.AddFunc("decl", Void)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(f); err == nil {
		t.Fatal("Compile accepted a declaration")
	}
	ip := NewInterp(1 << 10)
	if _, err := ip.Run(f); err == nil {
		t.Fatal("Run accepted a declaration")
	}
}

// buildCallLoop builds main() { s = 0; for i in 0..n { s += work(i) } }
// with work(i) = i*2, the nested-call shape of the step-limit
// regression: the budget must bound the callee's steps too.
func buildCallLoop(t *testing.T, m *Module) *Function {
	t.Helper()
	work, err := m.AddFunc("work", I64, I64)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(work)
	b.SetBlock(work.NewBlock("entry"))
	b.Ret(b.Add(work.Params[0], work.Params[0]))
	if err := Verify(work); err != nil {
		t.Fatal(err)
	}

	f, err := m.AddFunc("driver", I64, I64)
	if err != nil {
		t.Fatal(err)
	}
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	b = NewBuilder(f)
	b.SetBlock(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(I64)
	s := b.Phi(I64)
	b.CondBr(b.ICmp(CmpLT, i, f.Params[0]), body, exit)
	b.SetBlock(body)
	s2 := b.Add(s, b.Call(work, i))
	i2 := b.Add(i, ConstInt(I64, 1))
	b.Br(loop)
	b.SetBlock(exit)
	b.Ret(s)
	AddIncoming(i, ConstInt(I64, 0), entry)
	AddIncoming(i, i2, body)
	AddIncoming(s, ConstInt(I64, 0), entry)
	AddIncoming(s, s2, body)
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestStepLimitBoundsNestedCalls(t *testing.T) {
	const maxSteps = 500
	for _, legacy := range []bool{true, false} {
		m := NewModule("m")
		f := buildCallLoop(t, m)
		ip := NewInterp(1 << 10)
		ip.Legacy = legacy
		ip.MaxSteps = maxSteps
		if _, err := ip.Run(f, 1<<40); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("legacy=%v: err = %v, want ErrStepLimit", legacy, err)
		}
		// The budget is enforced in every phase (body, call, phi), so
		// execution stops within one instruction of the budget.
		if steps := ip.Stats().Steps; steps > maxSteps+1 {
			t.Fatalf("legacy=%v: ran %d steps, budget %d", legacy, steps, maxSteps)
		}
	}
}

func TestStepBudgetIsPerRun(t *testing.T) {
	for _, legacy := range []bool{true, false} {
		m := NewModule("m")
		f := buildCallLoop(t, m)
		ip := NewInterp(1 << 10)
		ip.Legacy = legacy
		if _, err := ip.Run(f, 64); err != nil {
			t.Fatal(err)
		}
		perRun := ip.Stats().Steps
		// Each run fits the budget; five runs together exceed it
		// three times over.
		ip.MaxSteps = perRun + perRun/2
		for i := 0; i < 4; i++ {
			if _, err := ip.Run(f, 64); err != nil {
				t.Fatalf("legacy=%v: run %d: %v (budget %d per run, %d steps each)", legacy, i+2, err, ip.MaxSteps, perRun)
			}
		}
		if steps := ip.Stats().Steps; steps != 5*perRun {
			t.Fatalf("legacy=%v: Stats().Steps = %d, want cumulative %d", legacy, steps, 5*perRun)
		}
		// A budget below one run still stops the run.
		ip.MaxSteps = perRun / 2
		if _, err := ip.Run(f, 64); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("legacy=%v: err = %v, want ErrStepLimit", legacy, err)
		}
	}
}

func TestStepLimitEnforcedInPhiPhase(t *testing.T) {
	// A two-phi spin loop: every iteration is one branch step plus two
	// phi steps, so two thirds of all steps happen in the phi phase.
	for _, legacy := range []bool{true, false} {
		m := NewModule("m")
		f, err := m.AddFunc("spin", I64)
		if err != nil {
			t.Fatal(err)
		}
		entry := f.NewBlock("entry")
		loop := f.NewBlock("loop")
		b := NewBuilder(f)
		b.SetBlock(entry)
		b.Br(loop)
		b.SetBlock(loop)
		x := b.Phi(I64)
		y := b.Phi(I64)
		b.Br(loop)
		AddIncoming(x, ConstInt(I64, 1), entry)
		AddIncoming(x, y, loop)
		AddIncoming(y, ConstInt(I64, 2), entry)
		AddIncoming(y, x, loop)
		if err := Verify(f); err != nil {
			t.Fatal(err)
		}
		ip := NewInterp(1 << 10)
		ip.Legacy = legacy
		ip.MaxSteps = 1000
		if _, err := ip.Run(f); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("legacy=%v: err = %v, want ErrStepLimit", legacy, err)
		}
		if steps := ip.Stats().Steps; steps > 1001 {
			t.Fatalf("legacy=%v: ran %d steps past the 1000 budget", legacy, steps)
		}
	}
}

func TestCompiledPhiSwapIsSimultaneous(t *testing.T) {
	// The loop above swaps x and y through phis each iteration; after
	// an odd number of iterations x holds y's seed. A sequential move
	// implementation would collapse both to one value.
	m := NewModule("m")
	f, err := m.AddFunc("swap", I64, I64)
	if err != nil {
		t.Fatal(err)
	}
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	b := NewBuilder(f)
	b.SetBlock(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(I64)
	x := b.Phi(I64)
	y := b.Phi(I64)
	b.CondBr(b.ICmp(CmpLT, i, f.Params[0]), body, exit)
	b.SetBlock(body)
	i2 := b.Add(i, ConstInt(I64, 1))
	b.Br(loop)
	b.SetBlock(exit)
	// Return x*1000 + y to observe both.
	b.Ret(b.Add(b.Mul(x, ConstInt(I64, 1000)), y))
	AddIncoming(i, ConstInt(I64, 0), entry)
	AddIncoming(i, i2, body)
	AddIncoming(x, ConstInt(I64, 7), entry)
	AddIncoming(x, y, body)
	AddIncoming(y, ConstInt(I64, 9), entry)
	AddIncoming(y, x, body)
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	got, err := runBoth(t, f, 1<<10, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Three swaps: (x,y) = (7,9) -> (9,7) -> (7,9) -> (9,7).
	if got != 9*1000+7 {
		t.Fatalf("swap(3) = %d, want 9007", got)
	}
}

func TestCompiledSteadyStateAllocatesNothing(t *testing.T) {
	m := NewModule("m")
	f := buildSumArray(t, m)
	ip := NewInterp(1 << 16)
	addr, err := ip.Mem.Alloc(8 * 256)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: compile once, seed the frame pool.
	if _, err := ip.Run(f, addr, 256); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ip.Run(f, addr, 256); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Run allocates %v objects/op, want 0", allocs)
	}
}

func TestCompiledCallsAllocateNothing(t *testing.T) {
	// Calls pass arguments through a per-frame scratch region; a
	// call-heavy loop must stay allocation-free once the frame pool is
	// warm.
	m := NewModule("m")
	f := buildCallLoop(t, m)
	ip := NewInterp(1 << 10)
	if _, err := ip.Run(f, 64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ip.Run(f, 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("call-bearing Run allocates %v objects/op, want 0", allocs)
	}
}

func TestCompiledFloatBitIdentical(t *testing.T) {
	m := NewModule("m")
	f := buildDot(t, m)
	for _, legacy := range []bool{true, false} {
		ip := NewInterp(1 << 16)
		ip.Legacy = legacy
		xa, err := ip.Mem.Alloc(8 * 32)
		if err != nil {
			t.Fatal(err)
		}
		ya, err := ip.Mem.Alloc(8 * 32)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 32; k++ {
			if err := ip.Mem.Store(xa+uint64(8*k), 8, math.Float64bits(float64(k)*0.37)); err != nil {
				t.Fatal(err)
			}
			if err := ip.Mem.Store(ya+uint64(8*k), 8, math.Float64bits(float64(32-k)*1.25)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ip.Run(f, xa, ya, 32)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for k := 0; k < 32; k++ {
			want += float64(k) * 0.37 * float64(32-k) * 1.25
		}
		if g := math.Float64frombits(got); math.Abs(g-want) > 1e-9 {
			t.Fatalf("legacy=%v: dot = %g, want %g", legacy, g, want)
		}
	}
}
