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
// (tests, benchmarks) and across TCP (cmd/mediator etc.). All parties are
// semi-honest: they follow the protocol but may analyze what they see;
// the leakage.Ledger records exactly what that is.
package mediation

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/resilience"
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
	// Strategy is the DAS partitioning strategy.
	Strategy das.Strategy
	// IDMode enables footnote 1 for the commutative protocol: the
	// mediator retains the encrypted tuple sets and circulates fixed-
	// length IDs instead.
	IDMode bool
	// PayloadMode is ignored.
	//
	// Deprecated: PM has one payload mode.
	PayloadMode PayloadMode
	// Buckets is the FNP bucketing parameter for PM; 0 or 1 means one
	// polynomial over the whole active domain.
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
	if p.Buckets < 1 {
		p.Buckets = 1
	}
	return p
}

// Limits on the Params a party decodes. The client chooses them and the
// untrusted mediator relays them, so every party bounds them itself
// before it allocates anything from them.
const (
	// maxPartitions caps the DAS partition count: hash bucketing
	// allocates one member list per partition whatever the domain, which
	// this holds to 1.5 MiB, and the superset/precision trade-off of
	// Table 4 lies at tens of partitions.
	maxPartitions = 1 << 16
	// maxBuckets caps the PM bucket count: every bucket, even an empty
	// one, costs the source two EC-ElGamal encryptions, so 4,096
	// buckets already make each source ship half a megabyte of filler.
	maxBuckets = 1 << 12
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
	case p.Buckets < 1 || p.Buckets > maxBuckets:
		return fmt.Errorf("mediation: bucket count %d outside [1, %d]", p.Buckets, maxBuckets)
	case p.Strategy != das.EquiWidth && p.Strategy != das.EquiDepth && p.Strategy != das.HashBuckets:
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
	msgError        = "mmm.error"

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
// delivery-phase run fails: it attributes the failure to the party where
// it originated (leakage party naming: "client", "mediator", "source:S1",
// or the mediator's relation-addressed "source:R1" for links whose source
// name is unknown) and, when known, the protocol phase that was active
// there. Callers unwrap the cause with errors.Is/As — a dead peer's
// timeout matches transport.ErrTimeout.
type ProtocolError struct {
	// Party is where the failure originated (or the peer behind the link
	// that failed, when the party itself is unreachable).
	Party string
	// Phase is the telemetry phase active at the origin, when known
	// (e.g. "cross.encrypt").
	Phase string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *ProtocolError) Error() string {
	if e.Phase != "" {
		return fmt.Sprintf("mediation: %s failed during %s: %v", e.Party, e.Phase, e.Err)
	}
	return fmt.Sprintf("mediation: %s failed: %v", e.Party, e.Err)
}

// Unwrap supports errors.Is/As on the cause.
func (e *ProtocolError) Unwrap() error { return e.Err }

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

// countTimeout bumps the party's mediation_timeouts counter when err is a
// deadline expiry. Nil-safe on the registry.
func countTimeout(reg *telemetry.Registry, party string, err error) {
	if reg.Enabled() && errors.Is(err, transport.ErrTimeout) {
		reg.Counter("mediation_timeouts", "party", party).Add(1)
	}
}

// linkSessionID reports the mux session ID of a virtual link, when conn
// is a session-layer stream (any conn exposing SessionID). Plain links
// report false, and per-session telemetry roots stay unannotated.
func linkSessionID(conn transport.Conn) (uint64, bool) {
	s, ok := conn.(interface{ SessionID() uint64 })
	if !ok {
		return 0, false
	}
	return s.SessionID(), true
}

// annotateSession tags a telemetry root span with the mux session ID of
// the link it serves, tying each span tree to one virtual link of a
// multiplexed deployment.
func annotateSession(root *telemetry.Span, conn transport.Conn) {
	if sid, ok := linkSessionID(conn); ok {
		root.Annotate("mux-session", strconv.FormatUint(sid, 10))
	}
}

// errorBody is the payload of msgError: the originating party and phase
// travel with the message so every survivor reports the same attribution.
// Transient carries the origin's retry classification — error chains
// flatten to strings at party boundaries, so without this flag a
// client could not tell a relayed timeout (worth a fresh attempt) from
// a relayed protocol violation (terminal).
type errorBody struct {
	Party     string
	Phase     string
	Message   string
	Transient bool
}

// peerError is a failure a peer reported in msgError. Message is the
// origin's own text, which sendError relays as is, so a failure reads
// "peer error: " once however many parties it crossed.
type peerError struct{ Message string }

func (e *peerError) Error() string { return "peer error: " + e.Message }

// sendError best-effort reports a failure to a peer so it can abort
// instead of hanging. The from party names the sender; when err already
// carries a *ProtocolError attribution, the origin's party/phase and text
// are forwarded unchanged. The origin's retry classification rides along
// as the Transient flag.
func sendError(conn transport.Conn, from string, err error) {
	body := errorBody{Party: from, Message: err.Error(), Transient: resilience.Retryable(err)}
	var pe *ProtocolError
	if errors.As(err, &pe) {
		body.Party, body.Phase, body.Message = pe.Party, pe.Phase, pe.Err.Error()
		var relayed *peerError
		if errors.As(pe.Err, &relayed) {
			body.Message = relayed.Message
		}
	}
	m, e := transport.NewMessage(msgError, body)
	if e != nil {
		return
	}
	if serr := conn.Send(m); serr != nil {
		// The peer is already unreachable; the caller's original error is
		// what surfaces, and the peer's own Recv will fail on the dead
		// link, so there is nothing further to do with serr.
		return
	}
}

// abortLinks best-effort propagates err as msgError on every live link,
// so peers blocked mid-protocol abort immediately instead of waiting out
// their deadline. Used by the mediator, the only party with more than one
// link.
func abortLinks(err error, conns ...transport.Conn) {
	for _, c := range conns {
		sendError(c, leakage.PartyMediator, err)
	}
}

// recvExpect receives the next message, turning msgError payloads and
// link failures into *ProtocolError aborts and enforcing the expected
// type tag. The peer name attributes link failures: a dead or silent link
// is blamed on the party at its far end.
func recvExpect(conn transport.Conn, peer, typ string) (transport.Message, error) {
	m, err := conn.Recv()
	if err != nil {
		return transport.Message{}, &ProtocolError{
			Party: peer,
			Err:   fmt.Errorf("link failed awaiting %q: %w", typ, err),
		}
	}
	if m.Type == msgError {
		var body errorBody
		payload, perr := transport.Payload(m)
		if perr == nil {
			perr = transport.Decode(payload, &body)
		}
		if perr != nil {
			return transport.Message{}, &ProtocolError{
				Party: peer,
				Err:   fmt.Errorf("peer error (undecodable)"),
			}
		}
		party := body.Party
		if party == "" {
			party = peer
		}
		cause := error(&peerError{Message: body.Message})
		if body.Transient {
			// The origin classified its failure retryable; keep that
			// visible through the reconstructed chain.
			cause = resilience.MarkTransient(cause)
		}
		return transport.Message{}, &ProtocolError{
			Party: party,
			Phase: body.Phase,
			Err:   cause,
		}
	}
	if m.Type != typ {
		return transport.Message{}, &ProtocolError{
			Party: peer,
			Err:   fmt.Errorf("expected %q, got %q", typ, m.Type),
		}
	}
	// Verify the body digest before any payload reaches a decoder: a
	// corrupted-but-decodable payload would otherwise silently change
	// the protocol's inputs (and with them the join). Integrity
	// failures are link faults — typed and retryable.
	payload, err := transport.Payload(m)
	if err != nil {
		return transport.Message{}, &ProtocolError{
			Party: peer,
			Err:   fmt.Errorf("receiving %q: %w", typ, err),
		}
	}
	m.Body = payload
	return m, nil
}

// sendMsg encodes and sends a payload in one step. Send failures become
// *ProtocolError aborts attributed to the peer behind the link.
//
// seclint:wire gob-encodes the payload onto the party link
func sendMsg(conn transport.Conn, peer, typ string, v any) error {
	m, err := transport.NewMessage(typ, v)
	if err != nil {
		return err
	}
	if err := conn.Send(m); err != nil {
		return &ProtocolError{
			Party: peer,
			Err:   fmt.Errorf("sending %q: %w", typ, err),
		}
	}
	return nil
}

// recvInto receives a message of the given type and decodes its body.
//
// seclint:wire gob-decodes a link payload into the target (keys must not
// arrive over a link either)
func recvInto(conn transport.Conn, peer, typ string, v any) error {
	m, err := recvExpect(conn, peer, typ)
	if err != nil {
		return err
	}
	if err := transport.Decode(m.Body, v); err != nil {
		return &ProtocolError{
			Party: peer,
			Err:   fmt.Errorf("decoding %q: %w", typ, err),
		}
	}
	return nil
}

// stopwatch runs a party's delivery-phase work as named telemetry spans:
// each phase becomes a child span of the attached session root, so a
// party's compute time is the sum of its phase spans (time blocked on the
// network falls between phases). With no root attached the span calls
// are nil no-ops.
type stopwatch struct {
	party string
	root  *telemetry.Span
}

// phase runs f as one named telemetry phase (a child span of the root).
// A failing phase aborts the protocol: the error is attributed to this
// party and phase (unless it already carries an origin attribution from
// a peer).
func (s *stopwatch) phase(name string, f func() error) error {
	sp := s.root.Start(name)
	err := f()
	sp.End()
	return attribute(s.party, name, err)
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
