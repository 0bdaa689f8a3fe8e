package hybrid

import "github.com/secmediation/secmediation/internal/telemetry"

// Process-wide operation counters (telemetry.OpTotals): session-key
// transport at the sender (wrap) and at the recipient (unwrap) — one ECDH
// each, or an RSA-OAEP operation in the bench-only form — and AES-GCM
// seals/opens.
var (
	opWrap   = telemetry.CryptoOp("hybrid.wrap")
	opUnwrap = telemetry.CryptoOp("hybrid.unwrap")
	opSeal   = telemetry.CryptoOp("hybrid.seal")
	opOpen   = telemetry.CryptoOp("hybrid.open")
)
