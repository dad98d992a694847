// Command emulate runs a corpus executable in the user-mode emulator and
// prints an strace-like log of the system calls it issues — the dynamic
// half of the paper's §2.3 spot check that static analysis over-
// approximates runtime behavior. With -verify it also runs the static
// pipeline and reports whether the superset property holds.
//
// Usage:
//
//	emulate -package tar [-packages 400] [-verify]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emulate: ")
	var (
		pkg      = flag.String("package", "", "corpus package whose executable to run")
		packages = flag.Int("packages", 400, "corpus size")
		seed     = flag.Int64("seed", 1504, "corpus seed")
		verify   = flag.Bool("verify", false, "check static ⊇ dynamic (§2.3)")
	)
	flag.Parse()
	if *pkg == "" {
		log.Fatal("-package is required (try: -package tar)")
	}

	study, err := repro.NewStudy(repro.Config{Packages: *packages, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	p := study.Core().PackageFor(*pkg)
	if p == nil {
		log.Fatalf("no such package %q", *pkg)
	}

	// The study keeps library summaries; the emulator runs their images.
	study.Core().EnsureEmulatable()
	m := emu.New(study.Core().Resolver)
	for _, f := range p.Files {
		class, _ := elfx.Classify(f.Data)
		if class != elfx.ClassELFExec && class != elfx.ClassELFStatic {
			continue
		}
		bin, err := elfx.Open(f.Path, f.Data)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := m.RunImage(bin)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s (%d instructions, stopped: %s)\n", f.Path, tr.Steps, tr.Stopped)
		for _, ev := range tr.Events {
			name := "?"
			if ev.KnownNum {
				if d := linuxapi.SyscallByNum(int(ev.Num)); d != nil {
					name = d.Name
				}
			}
			args := make([]string, 0, 3)
			for i, known := range ev.ArgsKnown {
				if known {
					args = append(args, fmt.Sprintf("%#x", uint64(ev.Args[i])))
				} else {
					args = append(args, "?")
				}
			}
			from := ev.Binary
			if i := strings.LastIndexByte(from, '/'); i >= 0 {
				from = from[i+1:]
			}
			fmt.Printf("  %-18s(%s) = 0    [%s]\n", name, strings.Join(args, ", "), from)
		}
		if *verify {
			static := study.Core().Resolver.Footprint(footprint.Analyze(bin, footprint.Options{}))
			missing := 0
			for api := range tr.APIs() {
				if !static.APIs.Contains(api) {
					fmt.Printf("  !! dynamic %v not in static footprint\n", api)
					missing++
				}
			}
			if missing == 0 {
				fmt.Printf("  verified: static footprint (%d APIs) ⊇ dynamic trace (%d APIs)\n",
					len(static.APIs), len(tr.APIs()))
			}
		}
	}
}
