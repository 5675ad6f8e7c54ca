package main

import (
	"fmt"

	"fixture/internal/lib"
	"fixture/internal/other"
)

func main() {
	lib.Used()
	other.Run()
	fmt.Println(lib.T{})
}
