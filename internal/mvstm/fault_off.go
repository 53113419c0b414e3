//go:build !mvstmfault

package mvstm

// FaultInjected reports whether this build carries the deliberately
// weakened read validation used by the histcheck self-test (build tag
// mvstmfault, see fault_on.go). Production and normal test builds compile
// the faults away entirely.
const FaultInjected = false

// faultTBDRead, when true, makes version-list traversals serve uncommitted
// TBD heads — a dirty read that breaks opacity. faultLaxTraverse accepts
// versions whose commit clock equals the read clock ("<=" instead of the
// strict "<"), breaking the paper's §3.4 disjointness argument.
// faultLaxInPlace does the same to modeURead's in-place acceptance. Constant
// false here so the branches in traverse and modeURead are dead code.
const (
	faultTBDRead     = false
	faultLaxTraverse = false
	faultLaxInPlace  = false
)
