package main

import (
	"fmt"

	"fix/a"
)

func main() {
	c := a.Config{NeverRead: 1}
	c.Nested.X = 2
	p := &c.Addr
	*p = 3
	c.Hits.Inc()
	pair := a.Pair{4, 5}
	fmt.Println(a.Used(), c.NeverSet, c.Nested.X, c.Hits.N, pair.A+pair.B)
}
