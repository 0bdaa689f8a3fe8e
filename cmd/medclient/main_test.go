package main

import (
	"testing"

	"github.com/secmediation/secmediation/internal/mediation"
)

func TestParseProtocol(t *testing.T) {
	cases := map[string]mediation.Protocol{
		"plaintext": mediation.ProtocolPlaintext, "pt": mediation.ProtocolPlaintext,
		"mobilecode": mediation.ProtocolMobileCode, "mc": mediation.ProtocolMobileCode,
		"das":         mediation.ProtocolDAS,
		"commutative": mediation.ProtocolCommutative, "COMM": mediation.ProtocolCommutative,
		"pm": mediation.ProtocolPM, "private-matching": mediation.ProtocolPM,
	}
	for in, want := range cases {
		got, err := parseProtocol(in)
		if err != nil || got != want {
			t.Errorf("parseProtocol(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseProtocol("quantum"); err == nil {
		t.Error("unknown protocol accepted")
	}
}
