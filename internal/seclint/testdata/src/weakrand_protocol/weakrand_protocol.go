// Package weakrandprotocol exercises weakrand rule 2: the quarantined
// insecurerand package must be unreachable from protocol directories.
// The unit test loads this fixture with RelDir overridden to a
// protocol directory (internal/mediation), which arms the rule.
package weakrandprotocol

import (
	"github.com/secmediation/secmediation/internal/workload/insecurerand"
)

// Pick draws from the deterministic generator — fine for workload
// synthesis, fatal inside a protocol package.
func Pick(seed int64, n int) int {
	return insecurerand.New(seed).Intn(n)
}
