// Package a holds one export of each kind the checker must judge.
package a

import "fmt"

// Level is used by b; its String method is reached only through fmt.
type Level int

func (l Level) String() string { return fmt.Sprintf("L%d", int(l)) }

// Used is called by b.
func Used() Level { return 1 }

// ForOther is called only from the nested module.
func ForOther() {}

// Dead is the planted dead export.
func Dead() {}

// Config has one field of each kind the field rule must judge; b sets
// and reads them.
type Config struct {
	NeverSet  int     // read by b, set by nobody
	NeverRead int     // set by b's keyed literal, read by nobody
	Nested    Inner   // set only through b's c.Nested.X = ...
	Addr      int     // set only through b's &c.Addr
	Hits      Counter // set only by b calling a pointer method on it
	Tagged    int     `json:"tagged"` // never used, but encoding/json may
}

// Inner is Config.Nested's type.
type Inner struct{ X int }

// Counter is Config.Hits's type.
type Counter struct{ N int }

// Inc counts one hit.
func (c *Counter) Inc() { c.N++ }

// Pair is set only by b's positional literal.
type Pair struct{ A, B int }
