package main

import (
	"fmt"

	"fix/a"
)

func main() { fmt.Println(a.Used()) }
