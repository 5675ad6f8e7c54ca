package main

import (
	"fmt"

	"fixture"
	"fixture/internal/lib"
	"fixture/internal/other"
)

func main() {
	fixture.Facade()
	lib.Used()
	other.Run()
	fmt.Println(lib.T{})
}
