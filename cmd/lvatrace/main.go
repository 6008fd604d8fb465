// Command lvatrace records, inspects and replays the grid streams (LVAG
// files) that connect the phase-1 (Pin-like) simulator to the phase-2
// full-system simulator and that the experiment drivers replay across the
// design grid.
//
//	lvatrace record -bench canneal -dir traces           # record a grid stream
//	lvatrace stat -decode traces/<hash>.lvag             # summarize and verify it
//	lvatrace replay -degree 4 traces/<hash>.lvag         # full-system replay
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lva/internal/core"
	"lva/internal/experiments"
	"lva/internal/fullsys"
	"lva/internal/trace"
	"lva/internal/workloads"
)

func main() {
	cmds := map[string]func([]string) error{
		"record": cmdRecord,
		"stat":   cmdStat,
		"replay": cmdReplay,
	}
	if len(os.Args) < 2 || cmds[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage:")
		fmt.Fprintln(os.Stderr, "  lvatrace record -bench <name|all> [-kind precise|lvabase] [-dir d] [-seed n]")
		fmt.Fprintln(os.Stderr, "  lvatrace stat [-decode] <file.lvag ...>")
		fmt.Fprintln(os.Stderr, "  lvatrace replay [-degree n] <file.lvag>")
		os.Exit(2)
	}
	if err := cmds[os.Args[1]](os.Args[2:]); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lvatrace:", err)
	os.Exit(1)
}

// cmdRecord captures grid streams into a directory. Re-running against a
// warm directory is a no-op per stream: recordings found on disk are
// trusted, so this doubles as a cheap "is the store warm?" check.
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("lvatrace record", flag.ExitOnError)
	var (
		bench = fs.String("bench", "all", "benchmark to record, or \"all\"")
		kind  = fs.String("kind", "precise", "stream kind: precise or lvabase")
		dir   = fs.String("dir", "", "trace directory (default: $LVA_TRACE_DIR, else a temp dir)")
		seed  = fs.Uint64("seed", experiments.DefaultSeed, "workload input seed")
	)
	fs.Parse(args)
	if *dir != "" {
		experiments.SetTraceDir(*dir)
	}

	var ws []workloads.Workload
	if *bench == "all" {
		ws = workloads.All()
	} else {
		w, err := workloads.ByName(*bench)
		if err != nil {
			return err
		}
		ws = []workloads.Workload{w}
	}
	before := experiments.TraceCounters()
	for _, w := range ws {
		path, err := experiments.EnsureGridStream(*kind, w, *seed)
		if err != nil {
			return err
		}
		hdr, size, err := gridFooter(path)
		if err != nil {
			return err
		}
		fmt.Printf("%-13s %s: %d accesses, %d chunks, %s\n",
			w.Name(), path, hdr.Accesses, hdr.Chunks, byteSize(size))
	}
	after := experiments.TraceCounters()
	fmt.Printf("recorded %d stream(s), %d already on disk\n",
		after.Recordings-before.Recordings,
		uint64(len(ws))-(after.Recordings-before.Recordings))
	return nil
}

// cmdStat summarizes grid stream files from their footers; -decode also
// streams every chunk to verify the encoding end to end.
func cmdStat(args []string) error {
	fs := flag.NewFlagSet("lvatrace stat", flag.ExitOnError)
	decode := fs.Bool("decode", false, "decode every chunk (validates the file) and report static approximate PCs")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("stat: no files given")
	}
	for _, path := range fs.Args() {
		if err := statGrid(path, *decode); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

func statGrid(path string, decode bool) error {
	hdr, size, err := gridFooter(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: stream %q seed %d (key %s)\n", path, hdr.Name, hdr.Seed, hdr.Key)
	fmt.Printf("  accesses=%d loads=%d stores=%d approxLoads=%d threads=%d instructions=%d\n",
		hdr.Accesses, hdr.Loads, hdr.Stores, hdr.ApproxLoads, hdr.Threads, hdr.Instructions)
	perAccess := 0.0
	if hdr.Accesses > 0 {
		perAccess = float64(size) / float64(hdr.Accesses)
	}
	fmt.Printf("  chunks=%d fileSize=%s (%.2f bytes/access)\n",
		hdr.Chunks, byteSize(size), perAccess)
	if len(hdr.Meta) > 0 {
		fmt.Printf("  footer meta: %s\n", strings.TrimSpace(string(hdr.Meta)))
	}
	if !decode {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	gr, err := trace.NewGridReader(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return err
	}
	var accesses uint64
	pcs := map[uint64]struct{}{}
	minChunk, maxChunk := 0, 0
	var minPer, maxPer float64
	for {
		chunk, _, err := gr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		accesses += uint64(len(chunk))
		for _, a := range chunk {
			if a.Approx && a.Op != trace.Store {
				pcs[a.PC] = struct{}{}
			}
		}
		cb := gr.LastChunkBytes()
		if minChunk == 0 || cb < minChunk {
			minChunk = cb
		}
		if cb > maxChunk {
			maxChunk = cb
		}
		if len(chunk) > 0 {
			per := float64(cb) / float64(len(chunk))
			if minPer == 0 || per < minPer {
				minPer = per
			}
			if per > maxPer {
				maxPer = per
			}
		}
	}
	if accesses != hdr.Accesses {
		return fmt.Errorf("decoded %d accesses, footer says %d", accesses, hdr.Accesses)
	}
	fmt.Printf("  decode ok: %d accesses, %d static approximate-load PCs\n", accesses, len(pcs))
	chunks, decAccesses, decBytes := gr.DecodedStats()
	if chunks > 0 && decAccesses > 0 {
		mean := float64(decBytes) / float64(chunks)
		per := float64(decBytes) / float64(decAccesses)
		fmt.Printf("  chunk sizes: min=%s mean=%s max=%s (%d chunks, framing included)\n",
			byteSize(int64(minChunk)), byteSize(int64(mean)), byteSize(int64(maxChunk)), chunks)
		fmt.Printf("  bytes/access: min=%.2f mean=%.2f max=%.2f per chunk\n", minPer, per, maxPer)
	}
	return nil
}

func gridFooter(path string) (trace.GridHeader, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.GridHeader{}, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return trace.GridHeader{}, 0, err
	}
	hdr, err := trace.ReadGridFooter(f)
	return hdr, st.Size(), err
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// cmdReplay streams one grid recording through the full-system model,
// precisely (-degree -1) or with LVA at the given approximation degree.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("lvatrace replay", flag.ExitOnError)
	degree := fs.Int("degree", 0, "approximation degree (-1 = precise)")
	fs.Parse(args)
	if *degree < -1 {
		return fmt.Errorf("replay: -degree %d: want -1 (precise) or a degree >= 0", *degree)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: want one file after the flags, got %q", fs.Args())
	}
	path := fs.Arg(0)
	hdr, _, err := gridFooter(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	cfg := fullsys.DefaultConfig()
	label := "precise"
	if *degree >= 0 {
		acfg := core.DefaultConfig()
		acfg.Degree = *degree
		acfg.ValueDelay = 1
		cfg.Approx = &acfg
		label = fmt.Sprintf("lva degree %d", *degree)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	gr, err := trace.NewGridReader(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	r, err := fullsys.New(cfg).RunStream(hdr.Threads, gr)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("replay %q (%s):\n", hdr.Name, label)
	fmt.Printf("  cycles=%d IPC=%.3f misses=%d covered=%d fetches=%d\n",
		r.Cycles, r.IPC(), r.L1LoadMisses, r.Covered, r.Fetches)
	fmt.Printf("  L2acc=%d dram=%d flitHops=%d invals=%d flushes=%d\n",
		r.L2Accesses, r.DRAMAccesses, r.FlitHops, r.Invalidations, r.Flushes)
	fmt.Printf("  avgExposedMissLat=%.1f energy=%.3g pJ missEDP=%.3g\n",
		r.AvgExposedMissLatency(), r.Energy.TotalPJ(), r.MissEDP())
	return nil
}
