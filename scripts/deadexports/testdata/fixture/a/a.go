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
