// Package mediation implements the paper's contribution: the credential-
// based Multimedia Mediator (MMM) architecture with three delivery-phase
// protocols that let an untrusted mediator compute an equi-JOIN over
// encrypted partial results —
//
//   - ProtocolDAS: bucketization with a client-side query translator
//     (Listing 2; after Hacıgümüş et al.),
//   - ProtocolCommutative: double commutative encryption of hashed join
//     values (Listing 3; after Agrawal et al.),
//   - ProtocolPM: private matching with homomorphically encrypted
//     polynomials (Listing 4; after Freedman et al.) —
//
// plus two baselines: ProtocolMobileCode (the earlier MMM solution: the
// client decrypts partial results and computes the join locally) and
// ProtocolPlaintext (a trusted mediator joining plaintexts).
//
// Parties (Client, Mediator, Source) communicate exclusively through
// transport.Conn links, so every protocol runs identically in-memory
// (tests, benchmarks) and across TCP (cmd/mediator etc.). A party wraps
// each conn once, where it enters, in a link.Link naming the peer behind
// it; the protocol code receives only through link.Link.Recv, so a run
// ends in the exact join or in a *ProtocolError naming the failing
// party. All parties are semi-honest: they follow the protocol but may
// analyze what they see; the leakage.Ledger records exactly what that
// is.
package mediation

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation/link"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// Protocol selects a delivery-phase protocol.
type Protocol uint8

const (
	// ProtocolPlaintext is the trusted-mediator baseline (Figure 1 without
	// encryption).
	ProtocolPlaintext Protocol = iota
	// ProtocolMobileCode is the prior MMM solution: hybrid-encrypted
	// partial results, join at the client.
	ProtocolMobileCode
	// ProtocolDAS is the Database-as-a-Service protocol (Listing 2,
	// client setting).
	ProtocolDAS
	// ProtocolCommutative is the commutative-encryption protocol
	// (Listing 3).
	ProtocolCommutative
	// ProtocolPM is the private-matching protocol (Listing 4).
	ProtocolPM
)

// String names the protocol as in the paper's tables.
func (p Protocol) String() string {
	switch p {
	case ProtocolPlaintext:
		return "plaintext"
	case ProtocolMobileCode:
		return "mobile-code"
	case ProtocolDAS:
		return "database-as-a-service"
	case ProtocolCommutative:
		return "commutative-encryption"
	case ProtocolPM:
		return "private-matching"
	default:
		return "unknown"
	}
}

// PayloadMode named the PM tuple-set transport.
//
// Deprecated: PM always seals tuple sets out of band (footnote 2), the
// only mode EC-ElGamal allows. Nothing in the protocol reads it.
type PayloadMode uint8

// PayloadHybrid was footnote 2's out-of-band payload mode.
//
// Deprecated: it is what PM always does.
const PayloadHybrid PayloadMode = 1

// Params tunes the delivery-phase protocols. The zero value selects sane
// defaults (see withDefaults). Every party checks them against fixed
// limits before it uses them and aborts the query on a violation (see
// check).
type Params struct {
	// Partitions is the DAS partition count per index table.
	Partitions int
	// Pushdown enables the DAS selection-pushdown extension: conjunctive
	// WHERE conditions are translated into mediator-side index filters.
	// Off by default (it reveals predicate-satisfaction patterns to the
	// mediator; see internal/mediation/pushdown.go).
	Pushdown bool
	// Strategy is zero: DAS partitions into equi-depth intervals. It is
	// not sent; the client rejects any other value.
	//
	// Deprecated: DAS has one partitioning.
	Strategy das.Strategy
	// PayloadMode is ignored.
	//
	// Deprecated: PM has one payload mode.
	PayloadMode PayloadMode
	// Buckets is ignored: it is not sent, and each PM source derives
	// its bucket count from its own active-domain size
	// (pm.BucketCount).
	//
	// Deprecated: no party chooses the PM bucket count.
	Buckets int
	// Timeout bounds every single Send/Recv a party performs for this
	// query (via transport.Conn.SetTimeout); it travels in the request so
	// mediator and sources arm the same per-operation deadline. Zero (the
	// default) disables deadlines — single-process runs and tests that
	// never lose a party need none. The cmd binaries set a sane default.
	// A timed-out operation aborts the protocol with a *ProtocolError
	// wrapping transport.ErrTimeout.
	Timeout time.Duration
	// QueryID is the client-generated identifier of the logical query,
	// stable across retry attempts (resilience.Do supplies it). It
	// travels in the request and partial queries so sources can
	// recognize — and discard partial state from — attempts the client
	// has abandoned. Empty disables attempt tracking (in-process runs
	// need none).
	QueryID string
	// Attempt numbers this try of the query from 1 (resilience.Attempt.N).
	// A source that has seen a later attempt of the same QueryID denies
	// earlier ones as stale.
	Attempt int
}

func (p Params) withDefaults() Params {
	if p.Partitions == 0 {
		p.Partitions = 16
	}
	return p
}

// Limits on the Params a party decodes. The client chooses them and the
// untrusted mediator relays them, so every party bounds them itself
// before it allocates anything from them.
const (
	// maxPartitions caps the DAS partition count. Equi-depth
	// partitioning makes at most |dom| partitions whatever the count, so
	// nothing is sized from it; the cap refuses a meaningless count at
	// the first party that decodes it, far above the tens of partitions
	// where Table 4's superset/precision trade-off lies.
	maxPartitions = 1 << 16
	// maxQueryIDLen caps a query ID: a source stores up to attemptCap of
	// them before it verifies any credential, and resilience.NewQueryID
	// makes 16 bytes.
	maxQueryIDLen = 64
)

// check rejects Params no party may run with. It applies to the values
// after withDefaults, as the mediator forwards them.
func (p Params) check() error {
	switch {
	case p.Partitions < 1 || p.Partitions > maxPartitions:
		return fmt.Errorf("mediation: partition count %d outside [1, %d]", p.Partitions, maxPartitions)
	case p.Strategy != 0:
		return fmt.Errorf("mediation: unknown partitioning strategy %d", p.Strategy)
	case p.Timeout < 0:
		return fmt.Errorf("mediation: negative timeout %v", p.Timeout)
	case p.Attempt < 0:
		return fmt.Errorf("mediation: negative attempt %d", p.Attempt)
	case len(p.QueryID) > maxQueryIDLen:
		return fmt.Errorf("mediation: query ID of %d bytes exceeds %d", len(p.QueryID), maxQueryIDLen)
	}
	return nil
}

// Message type tags. One namespace per protocol keeps mis-wiring loud.
const (
	msgRequest      = "mmm.request"
	msgPartialQuery = "mmm.partial-query"
	msgPartialAck   = "mmm.partial-ack"

	msgDASPartial     = "das.partial"
	msgDASIndexTables = "das.index-tables"
	msgDASServerQuery = "das.server-query"
	msgDASResult      = "das.result"

	msgCommOffer     = "comm.offer"
	msgCommCross     = "comm.cross"
	msgCommCrossBack = "comm.cross-back"
	msgCommResult    = "comm.result"

	msgPMCoeffs = "pm.coeffs"
	msgPMCross  = "pm.cross"
	msgPMEvals  = "pm.evals"
	msgPMResult = "pm.result"

	msgMCPartial = "mc.partial"
	msgMCResult  = "mc.result"

	msgPTPartial = "pt.partial"
	msgPTResult  = "pt.result"
)

// ProtocolError is the typed abort error every party surfaces when a
// delivery-phase run fails (see link.ProtocolError).
type ProtocolError = link.ProtocolError

// attribute wraps err as a *ProtocolError blamed on party/phase, unless
// the chain already carries an attribution (the origin wins: a mediator
// relaying a source's failure must not re-blame itself).
func attribute(party, phase string, err error) error {
	if err == nil {
		return nil
	}
	var pe *ProtocolError
	if errors.As(err, &pe) {
		return err
	}
	return &ProtocolError{Party: party, Phase: phase, Err: err}
}

// annotateSession tags a telemetry root span with the mux session ID of
// the link it serves, tying each span tree to one virtual link of a
// multiplexed deployment.
func annotateSession(root *telemetry.Span, l *link.Link) {
	if sid, ok := l.SessionID(); ok {
		root.Annotate("mux-session", strconv.FormatUint(sid, 10))
	}
}

// abort ends a party's failed session: err is attributed to the party
// (unless the chain already names its origin), counted in
// mediation_timeouts when a deadline fired at this party, and
// best-effort reported over l so the peer unblocks at once.
func abort(l *link.Link, reg *telemetry.Registry, party string, err error) error {
	err = attribute(party, "", err)
	if reg.Enabled() && errors.Is(err, transport.ErrTimeout) && !link.Relayed(err) {
		reg.Counter("mediation_timeouts", "party", party).Add(1)
	}
	l.Abort(party, err)
	return err
}

// abortLinks best-effort propagates err as an abort frame on every live
// link, so peers blocked mid-protocol abort immediately instead of
// waiting out their deadline. Used by the mediator, the only party with
// more than one link.
func abortLinks(err error, links ...*link.Link) {
	for _, l := range links {
		l.Abort(leakage.PartyMediator, err)
	}
}

// stopwatch runs a party's delivery-phase work as named telemetry spans:
// each phase becomes a child span of the attached session root, so a
// party's compute time is the sum of its phase spans (time blocked on the
// network falls between phases). With no root attached the span calls
// are nil no-ops. peer is the one peer of a client or a source, the
// mediator; the mediator has none.
type stopwatch struct {
	party string
	peer  string
	root  *telemetry.Span
}

// phase runs f as one named telemetry phase (a child span of the root).
// A failing phase aborts the protocol with the error blame attributes.
func (s *stopwatch) phase(name string, f func() error) error {
	sp := s.root.Start(name)
	err := f()
	sp.End()
	return s.blame(name, err)
}

// blame is the one blame rule. A party with one peer computes only on
// what that peer sent it, so its failure names the peer, with no phase
// (the detecting phase is not the peer's). The mediator reads several
// peers: its failure names itself and the phase. An error that already
// names its origin keeps it (checkCrossBack names a source).
func (s *stopwatch) blame(phase string, err error) error {
	if s.peer != "" {
		return attribute(s.peer, "", err)
	}
	return attribute(s.party, phase, err)
}

// trafficCounters adds one session's transport counters to the telemetry
// counters labelled by the recording party and its peer, so a party
// serving many sessions reports their totals. Nil-safe.
func trafficCounters(reg *telemetry.Registry, party, peer string, st *transport.Stats) {
	if !reg.Enabled() {
		return
	}
	reg.Counter("transport_bytes_sent", "party", party, "peer", peer).Add(st.BytesSent())
	reg.Counter("transport_bytes_recv", "party", party, "peer", peer).Add(st.BytesRecv())
	reg.Counter("transport_msgs_sent", "party", party, "peer", peer).Add(st.MsgsSent())
	reg.Counter("transport_msgs_recv", "party", party, "peer", peer).Add(st.MsgsRecv())
}
