// Command mmmca is the certification authority of the preparatory phase:
// it generates a CA signing key and issues property credentials binding a
// client's RSA public key to attested properties.
//
// Usage:
//
//	mmmca init -name FederationCA -key ca-key.pem -pub ca-pub.pem
//	mmmca issue -name FederationCA -key ca-key.pem \
//	      -client-pub client-pub.pem -prop role=analyst -prop org=acme \
//	      -validity 24h -out cred.json
package main

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/keyio"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "init":
		err = runInit(os.Args[2:])
	case "issue":
		err = runIssue(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmmca:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mmmca init|issue [flags]")
	os.Exit(2)
}

func runInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	keyPath := fs.String("key", "ca-key.pem", "output path for the CA private key")
	pubPath := fs.String("pub", "ca-pub.pem", "output path for the CA public key")
	if err := fs.Parse(args); err != nil {
		return err
	}
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return err
	}
	if err := keyio.WritePrivateKeyFile(*keyPath, key); err != nil {
		return err
	}
	if err := keyio.WritePublicKeyFile(*pubPath, &key.PublicKey); err != nil {
		return err
	}
	fmt.Printf("CA key written to %s, verification key to %s\n", *keyPath, *pubPath)
	return nil
}

// propList collects repeatable -prop name=value flags.
type propList []credential.Property

func (p *propList) String() string { return fmt.Sprint(*p) }

func (p *propList) Set(s string) error {
	name, value, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("property %q: want name=value", s)
	}
	*p = append(*p, credential.Property{Name: name, Value: value})
	return nil
}

func runIssue(args []string) error {
	fs := flag.NewFlagSet("issue", flag.ExitOnError)
	name := fs.String("name", "MMM-CA", "certification authority name")
	keyPath := fs.String("key", "ca-key.pem", "CA private key (from mmmca init)")
	clientPub := fs.String("client-pub", "", "client public key PEM (from medclient keygen)")
	validity := fs.Duration("validity", 24*time.Hour, "credential validity")
	out := fs.String("out", "cred.json", "output credential file")
	var props propList
	fs.Var(&props, "prop", "attested property name=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clientPub == "" {
		return fmt.Errorf("-client-pub is required")
	}
	if len(props) == 0 {
		return fmt.Errorf("at least one -prop is required")
	}
	caKey, err := keyio.ReadPrivateKeyFile(*keyPath)
	if err != nil {
		return err
	}
	clientKey, err := keyio.ReadPublicKeyFile(*clientPub)
	if err != nil {
		return err
	}
	ca := credential.NewAuthorityWithKey(*name, caKey)
	cred, err := ca.Issue(clientKey, props, *validity)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(cred, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("credential with %d properties written to %s (valid until %v)\n",
		len(cred.Properties), *out, cred.NotAfter)
	return nil
}
