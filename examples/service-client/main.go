// The service-client example runs the query service in-process and asks
// it the iterated question that drives compatibility-layer development
// (§1 of the paper, and the core workload of Loupe-style tooling):
// "given what I support today, what API should I add next?" Each answer
// is folded back into the supported set and the question asked again,
// tracing the support curve a real prototype would climb — without ever
// re-running the analysis pipeline, because the study stays resident in
// the service.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"repro"
	"repro/internal/httpapi"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("service-client: ")

	// Stand the service up in-process on an ephemeral port — exactly the
	// stack cmd/apiserved serves, minus the flag parsing.
	log.Printf("analyzing corpus ...")
	study, err := repro.NewStudy(repro.Config{Packages: 600, Installations: 1000000, Seed: 1504})
	if err != nil {
		log.Fatal(err)
	}
	svc := service.New(study, "in-process", service.Config{})
	api := httpapi.New(svc, httpapi.Options{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: api}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()
	log.Printf("service up at %s (generation %d)", base, svc.Generation())

	// Iterate the "what next?" question, 5 calls per round, starting
	// from the minimal set a freshly-booted prototype tends to have.
	supported := []string{"read", "write", "exit_group"}
	fmt.Printf("%-5s %-22s %12s %14s\n", "step", "add next", "importance", "completeness")
	fmt.Println(strings.Repeat("-", 57))
	step := 0
	start := time.Now()
	for round := 0; round < 8; round++ {
		var res service.SuggestResult
		postJSON(base+"/v1/suggest", map[string]any{"supported": supported, "k": 5}, &res)
		if len(res.Suggestions) == 0 {
			break
		}
		for _, sg := range res.Suggestions {
			step++
			fmt.Printf("%-5d %-22s %12.4f %13.2f%%\n",
				step, sg.Syscall, sg.Importance, sg.CompletenessAfter*100)
			supported = append(supported, sg.Syscall)
		}
	}
	fmt.Println(strings.Repeat("-", 57))

	var final service.CompletenessResult
	postJSON(base+"/v1/completeness", map[string]any{"syscalls": supported}, &final)
	fmt.Printf("supporting %d calls -> weighted completeness %.2f%% (%d queries in %s)\n",
		final.Syscalls, final.Completeness*100, step/5+1,
		time.Since(start).Round(time.Millisecond))

	// The same questions again are answered from the byte cache.
	postJSON(base+"/v1/completeness", map[string]any{"syscalls": supported}, &final)
	fmt.Printf("asked again: cached=%v, service hit ratio %.0f%%\n",
		final.Cached, svc.Stats().HitRatio()*100)
}

func postJSON(url string, body, out any) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
