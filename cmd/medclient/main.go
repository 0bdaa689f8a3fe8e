// Command medclient is the querying client of the MMM system: it manages
// the client key pair, attaches credentials to global queries, and runs
// the client side of the delivery-phase protocols against a mediator.
//
// Usage:
//
//	medclient keygen -key client-key.pem -pub client-pub.pem
//	medclient query -mediator 127.0.0.1:7100 -key client-key.pem \
//	    -cred cred.json \
//	    -sql "SELECT * FROM Orders JOIN Customers ON Orders.id = Customers.id" \
//	    -protocol commutative
package main

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/keyio"
	"github.com/secmediation/secmediation/internal/mediation"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/session"
)

// Exit codes: 0 success, 1 terminal failure (protocol violation, policy
// denial, bad flags), 3 retries exhausted on transient faults. Scripts
// can tell "retry the whole run later" (3) from "this query can never
// succeed" (1).
const (
	exitTerminal  = 1
	exitExhausted = 3
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "keygen":
		err = runKeygen(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "medclient:", err)
		if errors.Is(err, resilience.ErrRetriesExhausted) {
			os.Exit(exitExhausted)
		}
		os.Exit(exitTerminal)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: medclient keygen|query [flags]")
	os.Exit(2)
}

func runKeygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	keyPath := fs.String("key", "client-key.pem", "output path for the client private key")
	pubPath := fs.String("pub", "client-pub.pem", "output path for the client public key")
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
	fmt.Printf("client key written to %s, public key to %s\n", *keyPath, *pubPath)
	fmt.Println("have a certification authority issue credentials for the public key (mmmca issue)")
	return nil
}

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	mediatorAddr := fs.String("mediator", "127.0.0.1:7100", "mediator address")
	keyPath := fs.String("key", "client-key.pem", "client private key")
	sql := fs.String("sql", "", "global SQL query (two-relation JOIN)")
	protoName := fs.String("protocol", "commutative", "delivery protocol: plaintext|mobilecode|das|commutative|pm")
	partitions := fs.Int("partitions", 16, "DAS partitions per index table (1-65536)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-operation send/receive deadline for every party (0 disables)")
	retries := fs.Int("retries", 4, "attempts per query: transient faults (dial failure, timeout, overload, drain, link death) are retried with backoff; protocol errors are not")
	retryBudget := fs.Duration("retry-budget", 0, "total elapsed-time budget across a query's attempts (0 = bounded by -retries only)")
	concurrent := fs.Int("concurrent", 1, "run the query this many times concurrently over one multiplexed link")
	csvOut := fs.String("csv", "", "write the result as CSV to this file instead of stdout")
	var credPaths stringList
	fs.Var(&credPaths, "cred", "credential JSON file (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sql == "" {
		return fmt.Errorf("-sql is required")
	}
	key, err := keyio.ReadPrivateKeyFile(*keyPath)
	if err != nil {
		return err
	}
	client := &mediation.Client{PrivateKey: key}
	for _, path := range credPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var c credential.Credential
		if err := json.Unmarshal(data, &c); err != nil {
			return fmt.Errorf("credential %s: %w", path, err)
		}
		client.Credentials = append(client.Credentials, &c)
	}

	proto, err := parseProtocol(*protoName)
	if err != nil {
		return err
	}
	params := mediation.Params{
		Partitions: *partitions,
		Timeout:    *timeout,
	}

	// All protocol sessions run as virtual links over one physical
	// connection per mediator address; the pool dials once per attempt,
	// redials a dead link on the next attempt, and its breaker
	// fast-fails while the mediator stays down. Backoff between
	// attempts is resilience.Do's alone.
	pool := &session.Pool{
		Governor: resilience.NewBreakerSet(resilience.BreakerConfig{}),
	}
	defer pool.Close()
	pol := resilience.Policy{MaxAttempts: *retries, Budget: *retryBudget}
	// runOne executes one logical query under the retry orchestrator:
	// every attempt is a fresh session carrying the query/attempt tags,
	// so sources discard partial state of attempts we abandoned.
	runOne := func() (*relation.Relation, resilience.Result, error) {
		var res *relation.Relation
		r, err := resilience.Do(pol, func(a resilience.Attempt) error {
			st, err := pool.Open(*mediatorAddr)
			if err != nil {
				return err
			}
			defer st.Close()
			if *timeout > 0 {
				st.SetTimeout(*timeout)
			}
			p := params
			p.QueryID, p.Attempt = a.QueryID, a.N
			out, err := client.Query(st, *sql, proto, p)
			if err != nil {
				return err
			}
			res = out
			return nil
		})
		return res, r, err
	}
	var res *relation.Relation
	if *concurrent <= 1 {
		var r resilience.Result
		res, r, err = runOne()
		if err != nil {
			return err
		}
		if r.Recovered {
			fmt.Fprintf(os.Stderr, "medclient: query %s recovered on attempt %d\n", r.QueryID, r.Attempts)
		}
	} else {
		res, err = runConcurrent(*concurrent, runOne)
		if err != nil {
			return err
		}
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		return relation.WriteCSV(res, f)
	}
	fmt.Print(res.Sort().String())
	return nil
}

// runConcurrent runs n overlapping copies of the query, each under its
// own retry orchestration, and aggregates per-query outcomes (attempt
// counts, recoveries, failures) instead of dying on the first fault.
// The run succeeds — returning the first result; all queries compute
// the same join — only when every query does. A failed run's error
// keeps ErrRetriesExhausted on the chain only when no query failed
// terminally, so the exit code reports the severest outcome.
func runConcurrent(n int, runOne func() (*relation.Relation, resilience.Result, error)) (*relation.Relation, error) {
	type outcome struct {
		res *relation.Relation
		r   resilience.Result
		err error
		d   time.Duration
	}
	start := time.Now()
	outcomes := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			s := time.Now()
			res, r, err := runOne()
			outcomes <- outcome{res: res, r: r, err: err, d: time.Since(s)}
		}()
	}
	var res *relation.Relation
	var terminalErr, exhaustedErr error
	completed, recovered, attempts := 0, 0, 0
	for i := 0; i < n; i++ {
		o := <-outcomes
		attempts += o.r.Attempts
		if o.err != nil {
			if errors.Is(o.err, resilience.ErrRetriesExhausted) {
				if exhaustedErr == nil {
					exhaustedErr = o.err
				}
			} else if terminalErr == nil {
				terminalErr = o.err
			}
			fmt.Fprintf(os.Stderr, "medclient: query %s failed after %d attempts in %v: %v\n",
				o.r.QueryID, o.r.Attempts, o.d.Round(time.Millisecond), o.err)
			continue
		}
		completed++
		if o.r.Recovered {
			recovered++
			fmt.Fprintf(os.Stderr, "medclient: query %s recovered on attempt %d\n", o.r.QueryID, o.r.Attempts)
		}
		if res == nil {
			res = o.res
		}
	}
	fmt.Fprintf(os.Stderr, "medclient: %d/%d queries completed (%d recovered, %d attempts total) in %v\n",
		completed, n, recovered, attempts, time.Since(start).Round(time.Millisecond))
	if terminalErr != nil {
		return nil, terminalErr
	}
	if exhaustedErr != nil {
		return nil, exhaustedErr
	}
	return res, nil
}

func parseProtocol(name string) (mediation.Protocol, error) {
	switch strings.ToLower(name) {
	case "plaintext", "pt":
		return mediation.ProtocolPlaintext, nil
	case "mobilecode", "mc", "mobile-code":
		return mediation.ProtocolMobileCode, nil
	case "das":
		return mediation.ProtocolDAS, nil
	case "commutative", "comm":
		return mediation.ProtocolCommutative, nil
	case "pm", "private-matching":
		return mediation.ProtocolPM, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q", name)
	}
}
