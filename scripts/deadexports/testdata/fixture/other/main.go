package main

import "fix/a"

func main() { a.ForOther() }
