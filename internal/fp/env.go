package fp

import "fmt"

// InjectOp identifies the extra operation OP' applied by a variability
// injection (paper §3.5: x OP y becomes (x OP' eps) OP y).
type InjectOp byte

// The four basic injected operations.
const (
	InjAdd InjectOp = '+'
	InjSub InjectOp = '-'
	InjMul InjectOp = '*'
	InjDiv InjectOp = '/'
)

// AllInjectOps lists the four OP' choices used by the LULESH study.
var AllInjectOps = []InjectOp{InjAdd, InjSub, InjMul, InjDiv}

func (op InjectOp) String() string { return string(byte(op)) }

// Apply computes x OP' eps.
func (op InjectOp) Apply(x, eps float64) float64 {
	switch op {
	case InjAdd:
		return x + eps
	case InjSub:
		return x - eps
	case InjMul:
		return x * (1 + eps)
	case InjDiv:
		return x / (1 + eps)
	default:
		return x
	}
}

// Injection is a floating-point perturbation planted at one static
// instruction of one function, mirroring the paper's custom LLVM pass. The
// function body is modeled as a loop over its static FP instructions: the
// k-th dynamic operation executes static instruction k mod StaticOps, so an
// injection at OpIndex fires on every loop iteration, exactly like a real
// static-instruction injection.
type Injection struct {
	// OpIndex is the static instruction index within the function,
	// in [0, StaticOps).
	OpIndex int
	// Op is the extra operation OP'.
	Op InjectOp
	// Eps is the perturbation magnitude (drawn uniformly from (0,1) by the
	// enumeration pass, per the paper).
	Eps float64
}

func (inj Injection) String() string {
	return fmt.Sprintf("op%d %s %.3g", inj.OpIndex, inj.Op, inj.Eps)
}

// Env executes floating-point arithmetic for one function under the
// semantics its compilation assigned, and records which Semantics fields
// its operations have read (Reads). Recording, and arming a fast path
// (see the package doc), write to the Env, so an Env must not be shared
// across goroutines: a linked program gives every run its own copies. An
// injected Env also counts dynamic operations, so it must start fresh (its
// counter at zero) for every executable run.
type Env struct {
	sem Semantics
	// reads is the set of fields the operations so far have read. It
	// starts at ReadsFTZ: every operation that rounds may flush, and
	// testing each result for a subnormal would cost more than it saves.
	reads Reads
	// fast says which operations may skip the reference code. An Env
	// with an injection or flush-to-zero has none set, so every operation
	// takes its reference path. See the package doc.
	fast fastPaths

	// Static-instruction model for injection. staticOps == 0 disables
	// counting entirely (the common, un-injected fast path). It is an
	// int32 so that an Env fits in 32 bytes.
	staticOps int32
	inj       *Injection
	n         int // dynamic op counter
}

// NewEnv returns an Env that evaluates under sem with no injection.
func NewEnv(sem Semantics) *Env {
	sem = sem.Normalize()
	return &Env{sem: sem, reads: ReadsFTZ, fast: fastPaths{plain: !sem.FlushSubnormals}}
}

// fastPaths says which operations of an Env return their inline IEEE
// result, unless it is a NaN, instead of running the reference code.
type fastPaths struct {
	// plain is set by NewEnv: the Env has no injection and does not
	// flush subnormals. Add, Sub, Mul, Sum, Dot, Axpy and Scale test it.
	plain bool
	// div and unfused are armed by the first Div or MulAdd of a plain Env
	// whose semantics leave that operation unchanged (no UnsafeMath; no
	// FuseFMA or ExtendedPrecision). That first call runs the reference
	// code, which records what the operation reads, so the inline fast
	// path that follows has nothing left to record.
	div, unfused bool
}

// NewInjectedEnv returns an Env under sem that perturbs static instruction
// inj.OpIndex of a function with staticOps static FP instructions.
func NewInjectedEnv(sem Semantics, staticOps int, inj Injection) *Env {
	if staticOps <= 0 {
		staticOps = 1
	}
	return &Env{sem: sem.Normalize(), reads: ReadsFTZ, staticOps: int32(staticOps), inj: &inj}
}

// Sem returns the semantics this Env evaluates under. The caller may read
// any field, so every field counts as read.
func (e *Env) Sem() Semantics {
	e.reads = ReadsAll
	return e.sem
}

// Reads returns the set of Semantics fields the operations so far have
// read. Two Envs that agree on these fields and on their injection would
// have returned the same bits for the same calls.
func (e *Env) Reads() Reads { return e.reads }

// Injected reports whether this Env carries an injection plan.
func (e *Env) Injected() bool { return e.inj != nil }

// OpsExecuted returns the number of dynamic FP operations executed so far.
// It is only tracked when an injection is active and returns 0 otherwise.
func (e *Env) OpsExecuted() int { return e.n }

// step advances the dynamic op counter and perturbs x if the current static
// instruction is the injection site. It is called once per FP operation with
// the operand the paper's pass perturbs (the left operand x of x OP y).
func (e *Env) step(x float64) float64 {
	if e.inj == nil {
		return x
	}
	idx := e.n % int(e.staticOps)
	e.n++
	if idx == e.inj.OpIndex {
		return e.inj.Op.Apply(x, e.inj.Eps)
	}
	return x
}
