package mediation

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sync"
	"testing"

	"github.com/secmediation/secmediation/internal/codec"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/transport"
)

// tap is the mediator's end of one of its links: link is "client", or
// "source:<relation>" for each source the mediator dials. onSend and
// onRecv (either may be nil) see each message the mediator sends or
// receives on the link and return the message to deliver in its place:
// a tap when they only read, a deviating mediator when they rewrite.
// log, when set, records every frame as it crosses the link: a sent one
// after onSend, a received one before onRecv. The tap value a test
// builds has no Conn; query copies it onto each link.
type tap struct {
	transport.Conn
	link           string
	onSend, onRecv hook
	log            *transcript
}

// hook sees one message on link and returns the message to deliver.
type hook func(link string, m transport.Message) transport.Message

func (c *tap) Send(m transport.Message) error {
	if c.onSend != nil {
		m = c.onSend(c.link, m)
	}
	c.log.add(c.link, "send", m)
	return c.Conn.Send(m)
}

func (c *tap) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	c.log.add(c.link, "recv", m)
	if c.onRecv != nil {
		m = c.onRecv(c.link, m)
	}
	return m, nil
}

// query runs one query over n's parties with tp on the mediator's end of
// every link. It returns once every party has unwound, with the Serve
// error of each source the mediator dialed, by source name.
func (tp tap) query(t *testing.T, n *Network, sql string, proto Protocol, params Params) (*rel.Relation, map[string]error, error) {
	t.Helper()
	on := func(link string, c transport.Conn) transport.Conn {
		end := tp
		end.Conn, end.link = c, link
		return &end
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	srcErrs := map[string]error{}
	for _, src := range n.Sources {
		src := src
		for name := range src.Catalog {
			name := name
			n.Mediator.Routes[name] = func() (transport.Conn, error) {
				a, b := transport.Pair()
				wg.Add(1)
				go func() {
					defer wg.Done()
					err := src.Serve(b)
					b.Close()
					mu.Lock()
					srcErrs[src.Name] = err
					mu.Unlock()
				}()
				return on("source:"+name, a), nil
			}
		}
	}
	clientSide, mediatorSide := transport.Pair()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = n.Mediator.HandleSession(on("client", mediatorSide))
		mediatorSide.Close()
	}()
	res, err := n.Client.Query(clientSide, sql, proto, params)
	// Close before waiting: an early client abort must unblock a mediator
	// still awaiting client messages.
	clientSide.Close()
	wg.Wait()
	return res, srcErrs, err
}

// transcript is the mediator's view of one query: every frame on its
// links, in the order it sent or received them.
type transcript struct {
	mu     sync.Mutex
	frames []frame
}

// frame is one message on a mediator link; dir is "send" or "recv", as
// the mediator sees it.
type frame struct {
	link, dir string
	transport.Message
}

// String is the frame's view line: "link dir type len".
func (f frame) String() string {
	return fmt.Sprintf("%s %s %s %d", f.link, f.dir, f.Type, len(f.Body))
}

func (tr *transcript) add(link, dir string, m transport.Message) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.frames = append(tr.frames, frame{link, dir, m})
}

// on returns the frames on link (every frame when link is ""), in order.
func (tr *transcript) on(link string) []frame {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []frame
	for _, f := range tr.frames {
		if link == "" || f.link == link {
			out = append(out, f)
		}
	}
	return out
}

// first decodes into v the first frame of type typ on link and returns
// its body length; the test fails when no such frame crossed the link.
func (tr *transcript) first(t *testing.T, link, typ string, v any) int {
	t.Helper()
	for _, f := range tr.on(link) {
		if f.Type == typ {
			decodeBody(t, f.Message, v)
			return len(f.Body)
		}
	}
	t.Fatalf("no %s on %s", typ, link)
	return 0
}

// lines returns the view line of every frame keep selects.
func (tr *transcript) lines(keep func(frame) bool) []string {
	var out []string
	for _, f := range tr.on("") {
		if keep == nil || keep(f) {
			out = append(out, f.String())
		}
	}
	return out
}

// rewrite returns a hook that decodes each message of type typ on link
// (on every link when link is "") as a T, lets edit change it, and
// re-encodes it with transport.NewMessage, which re-seals the digest as
// a deviating mediator would. Other messages pass unchanged.
func rewrite[T any, P interface {
	*T
	codec.Decodable
}](t *testing.T, link, typ string, edit func(P)) hook {
	return func(l string, m transport.Message) transport.Message {
		if m.Type != typ || (link != "" && l != link) {
			return m
		}
		var v T
		decodeBody(t, m, P(&v))
		edit(&v)
		out, err := transport.NewMessage(typ, &v)
		if err != nil {
			t.Errorf("re-encoding %s: %v", typ, err)
		}
		return out
	}
}

// chain is the hook that applies hooks in turn.
func chain(hooks ...hook) hook {
	return func(link string, m transport.Message) transport.Message {
		for _, h := range hooks {
			m = h(link, m)
		}
		return m
	}
}

// decodeBody decodes a message's sealed body, failing the test otherwise.
func decodeBody(t *testing.T, m transport.Message, v any) {
	t.Helper()
	payload, err := transport.Payload(m)
	if err == nil {
		err = transport.Decode(payload, v)
	}
	if err != nil {
		t.Errorf("decoding %s: %v", m.Type, err)
	}
}

// The tap is this package's one link decorator: a test that watches or
// rewrites a mediator link builds a tap, not a type of its own that
// embeds transport.Conn. failCloseConn stubs a Close error, which no
// Pair end returns.
func TestOneLinkDecorator(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"tap": true, "failCloseConn": true}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := spec.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				sel, ok := field.Type.(*ast.SelectorExpr)
				if len(field.Names) > 0 || !ok || sel.Sel.Name != "Conn" {
					continue
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "transport" && !allowed[spec.Name.Name] {
					t.Errorf("%s: %s embeds transport.Conn; watch or rewrite the link with a tap", fset.Position(spec.Pos()), spec.Name.Name)
				}
			}
			return true
		})
	}
}
