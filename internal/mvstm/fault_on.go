//go:build mvstmfault

package mvstm

// FaultInjected: this build deliberately weakens mvstm's read validation so
// the histcheck torture subsystem can prove it detects a real consistency
// bug (the mutation self-test in internal/stmtest). Never ship this tag.
const FaultInjected = true

// faultTBDRead makes version-list traversals serve uncommitted TBD heads —
// a dirty read: a versioned reader can observe a value written by a
// transaction that later aborts, which no linearization can explain.
// faultLaxTraverse weakens the strict "version < rClock" acceptance to
// "<=": a versioned reader can then observe a same-clock writer through
// version lists that its unversioned reads exclude, tearing the snapshot.
// faultLaxInPlace weakens modeURead's in-place acceptance the same way: a
// lock released at the reader's own read clock validates, so a Mode U
// versioned reader serves the in-place value of a same-clock writer.
const (
	faultTBDRead     = true
	faultLaxTraverse = true
	faultLaxInPlace  = true
)
