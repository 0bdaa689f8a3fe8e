package credential

import (
	"errors"
	"time"

	"github.com/secmediation/secmediation/internal/codec"
)

// EncodeTo writes the set: a count, then per credential its properties,
// client key, expiry (Unix seconds and nanoseconds), issuer and
// signature.
func (s Set) EncodeTo(e *codec.Encoder) {
	e.Len(len(s))
	for _, c := range s {
		if c == nil {
			e.Fail(errors.New("credential: encoding a nil credential"))
			return
		}
		e.Len(len(c.Properties))
		for _, p := range c.Properties {
			e.Text(p.Name)
			e.Text(p.Value)
		}
		e.Bytes(c.ClientKeyDER)
		e.Int(c.NotAfter.Unix())
		e.Uint(uint64(c.NotAfter.Nanosecond()))
		e.Text(c.Issuer)
		e.Bytes(c.Signature)
	}
}

// DecodeFrom reads a set written by EncodeTo. Expiry times come back in
// UTC.
func (s *Set) DecodeFrom(d *codec.Decoder) {
	// Six fields of at least one byte each.
	n := d.Count(6)
	*s = nil
	if n == 0 {
		return
	}
	*s = make(Set, n)
	for i := range *s {
		c := &Credential{}
		if np := d.Count(2); np > 0 {
			c.Properties = make([]Property, np)
			for j := range c.Properties {
				c.Properties[j] = Property{Name: d.Text(), Value: d.Text()}
			}
		}
		c.ClientKeyDER = d.Bytes()
		sec, nsec := d.Int64(), d.Uint()
		if nsec >= uint64(time.Second) {
			d.Fail(errors.New("credential: expiry nanoseconds out of range"))
		}
		c.NotAfter = time.Unix(sec, int64(nsec)).UTC()
		c.Issuer = d.Text()
		c.Signature = d.Bytes()
		(*s)[i] = c
	}
}
