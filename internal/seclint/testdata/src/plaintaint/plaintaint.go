// Package plaintaint exercises the plaintaint analyzer with a
// deliberately leaky fake mediator: every way a plaintext source can be
// reached from a mediator entry point — directly, through a closure, a
// method value, a goroutine, a defer, and interface dispatch — must be
// flagged, while sanitizer-guarded and unreachable calls stay clean.
package plaintaint

// decryptTuple stands for a decryption primitive: its result is
// plaintext by declaration.
//
// seclint:source decrypted tuple bytes
func decryptTuple(ct []byte) []byte { return ct }

// reseal is an audited encrypt boundary: the decryption inside it is
// the declared re-encryption pattern, so traversal must not descend.
//
// seclint:sanitizer fixture encrypt boundary
func reseal(ct []byte) []byte { return decryptTuple(ct) }

// Mediator is the fixture's untrusted mediator.
type Mediator struct{}

// HandleSession is the protocol entry point seeding reachability.
//
// seclint:entry mediator
func (m *Mediator) HandleSession() {
	direct()
	viaClosure()
	viaMethodValue()
	viaGoroutine()
	viaDefer()
	viaInterface(leakyOpener{})
	viaInterface(safeOpener{})
	_ = reseal(nil) // sanitizer: traversal stops here, no finding
	callDialer(nil)
	callRoute(nil)
}

// direct reaches the source through a plain static call.
func direct() {
	_ = decryptTuple(nil)
}

// viaClosure reaches the source inside a function literal; the closure
// belongs to its creator, so the path must run through viaClosure.
func viaClosure() {
	f := func() {
		_ = decryptTuple(nil)
	}
	f()
}

// opener carries the method taken as a method value below.
type opener struct{}

func (opener) open() { _ = decryptTuple(nil) }

// viaMethodValue reaches the source through a method value: the `ref`
// edge, not a direct call.
func viaMethodValue() {
	f := opener{}.open
	f()
}

// viaGoroutine reaches the source in a spawned goroutine.
func viaGoroutine() {
	go leakAsync()
}

func leakAsync() { _ = decryptTuple(nil) }

// viaDefer reaches the source in a deferred call.
func viaDefer() {
	defer leakLater()
}

func leakLater() { _ = decryptTuple(nil) }

// tupleOpener is dispatched dynamically; both implementations below are
// resolved, and only the leaky one may be flagged.
type tupleOpener interface{ openTuple() []byte }

func viaInterface(o tupleOpener) { _ = o.openTuple() }

// leakyOpener decrypts at the mediator — the deliberate leak.
type leakyOpener struct{}

func (leakyOpener) openTuple() []byte { return decryptTuple(nil) }

// safeOpener passes the ciphertext through untouched.
type safeOpener struct{}

func (safeOpener) openTuple() []byte { return nil }

// dialer is a named func type with no boundary annotation: calling
// through it hides the callee, which is itself a finding.
type dialer func()

func callDialer(d dialer) {
	if d != nil {
		d()
	}
}

// route is the audited link boundary: the call crosses to another
// party, so hiding the callee is the honest model.
//
// seclint:boundary source
type route func()

func callRoute(r route) {
	if r != nil {
		r()
	}
}

// clientOnly holds plaintext but is never reachable from a mediator
// entry point: client-side decryption is the paper's normal case.
func clientOnly() []byte { return decryptTuple(nil) }

// oddball carries a typo'd annotation, which must be reported rather
// than silently ignored.
//
// seclint:sanitiser typo
func oddball() {}

// misplaced puts a type annotation on a function.
//
// seclint:boundary source
func misplaced() {}
