package main

import (
	"flag"
	"fmt"
)

// helpMode prints the registry-generated mode listing. -names emits bare
// mode names one per line, which the CI smoke loop walks.
type helpMode struct {
	fs    *flag.FlagSet
	names *bool
}

func newHelpMode() *helpMode {
	fs := newFlagSet("help")
	m := &helpMode{fs: fs}
	m.names = fs.Bool("names", false, "print registered mode names, one per line")
	return m
}

func (m *helpMode) Name() string         { return "help" }
func (m *helpMode) Synopsis() string     { return "list the registered modes" }
func (m *helpMode) Flags() *flag.FlagSet { return m.fs }
func (m *helpMode) Run(args []string) int {
	m.fs.Parse(args)
	if *m.names {
		for _, mode := range modes() {
			fmt.Println(mode.Name())
		}
		return 0
	}
	fmt.Print(usageText())
	return 0
}
