// Command lsmtool demonstrates and inspects the LSM storage engine that
// underlies every region: it drives a store through puts, deletes, flushes
// and a compaction, dumping the component structure (WAL segments, SSTable
// files, block indexes, bloom filters) at each stage. Useful for
// understanding how the engine realizes the paper's §2.1 model: append-only
// writes, versioned cells, tombstones, flush and compaction.
//
// Usage:
//
//	lsmtool [-rows 2000] [-stats]
//	lsmtool verify [-rows 2000] [-tables 4] [-corrupt 0]
//	lsmtool stats [-rows 2000] [-tables 4]
//
// -stats attaches a metrics registry to the store and, after the
// walkthrough, dumps every instrument (WAL append counters, per-stage
// latency histograms with p50/p95/p99.9) as stable JSON — the same registry
// layout DB.MetricsSnapshot exposes for a full cluster.
//
// The verify subcommand is the offline integrity sweep: it builds a store,
// flushes -tables SSTables, then re-opens every .sst file and verifies each
// block against its stored CRC32C — the same check the background scrubber
// runs continuously inside a live region. -corrupt N flips one byte in N of
// the files first, demonstrating detection; the process exits non-zero if
// any corruption is found, so the command doubles as a CI gate.
//
// The stats subcommand inspects physical table layout: it flushes -tables
// SSTables and prints every table's block/entry counts, restart points and
// max timestamp — the on-disk picture behind DESIGN.md §12.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/metrics"
	"diffindex/internal/sstable"
	"diffindex/internal/vfs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "verify" {
		verifyMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		statsMain(os.Args[2:])
		return
	}
	rows := flag.Int("rows", 2000, "rows to write per stage")
	stats := flag.Bool("stats", false, "dump the store's metrics registry as JSON at the end")
	flag.Parse()

	var reg *metrics.Registry
	if *stats {
		reg = metrics.NewRegistry()
	}
	fs := vfs.NewMemFS()
	store, err := lsm.Open(lsm.Options{
		FS:                 fs,
		Dir:                "demo",
		CompactionFanIn:    3, // so the incremental round below is visibly partial
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		Metrics:            reg,
		MetricsTable:       "demo",
	})
	if err != nil {
		panic(err)
	}
	defer store.Close()
	clock := kv.NewClock(1)

	dump := func(stage string) {
		names, _ := fs.List("demo/")
		fmt.Printf("--- %s ---\n", stage)
		fmt.Printf("memtable: %d bytes; sstables: %d\n", store.MemtableBytes(), store.TableCount())
		for _, n := range names {
			f, err := fs.Open(n)
			if err != nil {
				continue
			}
			sz, _ := f.Size()
			f.Close()
			fmt.Printf("  %-40s %8d bytes\n", n, sz)
		}
		st := store.Stats()
		fmt.Printf("stats: flushed=%dB compactions=%d\n", st.FlushBytes, st.Compactions)
		if st.Compactions > 0 {
			fmt.Printf("compaction io: read=%dB written=%dB gc-cells=%d tombstones-dropped=%d\n",
				st.CompactionBytesRead, st.CompactionBytesWritten,
				st.CompactionCellsDropped, st.TombstonesDropped)
		}
		if st.CompactionErrors > 0 {
			fmt.Printf("compaction errors: %d (last: %s)\n", st.CompactionErrors, st.LastCompactionError)
		}
		fmt.Println()
	}

	write := func(gen int) {
		for i := 0; i < *rows; i++ {
			key := []byte(fmt.Sprintf("row%08d", i))
			val := []byte(fmt.Sprintf("value-g%d-%d", gen, i))
			if err := store.Put(key, val, clock.Next()); err != nil {
				panic(err)
			}
		}
	}

	fmt.Println("LSM storage engine walkthrough (the paper's Figure 2)")
	fmt.Println()

	write(1)
	dump("after first write burst (all in memtable + WAL)")

	if err := store.Flush(); err != nil {
		panic(err)
	}
	dump("after flush (memtable → C1, WAL rolled forward)")

	write(2)
	store.Flush()
	write(3)
	store.Flush()
	dump("after two more bursts + flushes (C1, C2, C3)")

	// Delete a band of rows, flush the tombstones.
	for i := 0; i < *rows/10; i++ {
		store.Delete([]byte(fmt.Sprintf("row%08d", i)), clock.Next())
	}
	store.Flush()
	dump("after deleting 10% (tombstones flushed)")

	// One incremental tiered round first: it merges at most CompactionFanIn
	// similar-sized tables (bounded work, never the whole store) and — not
	// being at the bottom tier — retains every tombstone.
	if ran, err := store.CompactOnce(); err != nil {
		panic(err)
	} else if ran {
		dump("after one incremental tiered round (bounded fan-in, tombstones retained)")
	}

	if err := store.Compact(); err != nil {
		panic(err)
	}
	dump(fmt.Sprintf("after major compaction (C1..C4 → C1', newest version per key at GC horizon %d, tombstones GCed)", store.Horizon()))

	// Show version visibility.
	key := []byte(fmt.Sprintf("row%08d", *rows-1))
	c, ok, _ := store.Get(key, kv.MaxTimestamp)
	fmt.Printf("newest visible %q = %q (ts %d, found=%v)\n", key, c.Value, c.Ts, ok)
	deleted := []byte("row00000000")
	if _, ok, _ := store.Get(deleted, kv.MaxTimestamp); !ok {
		fmt.Printf("deleted row %q correctly invisible after compaction\n", deleted)
	}

	res, _ := store.Scan([]byte("row00000190"), []byte("row00000210"), kv.MaxTimestamp, 0)
	fmt.Printf("scan across the delete boundary returned %d rows\n", len(res))

	if st := store.Stats(); st.FlushBytes > 0 {
		wa := float64(st.FlushBytes+st.CompactionBytesWritten) / float64(st.FlushBytes)
		fmt.Printf("write amplification: %.2f (flushed %dB, compaction rewrote %dB)\n",
			wa, st.FlushBytes, st.CompactionBytesWritten)
	}

	if reg != nil {
		buf, err := reg.Snapshot().MarshalStableJSON()
		if err != nil {
			panic(err)
		}
		fmt.Println("\n--- metrics registry ---")
		os.Stdout.Write(buf)
		fmt.Println()
	}
}

// verifyMain implements `lsmtool verify`: build a store, flush a handful of
// SSTables, close it so everything is at rest, optionally corrupt some files,
// then sweep every .sst block-by-block exactly like the online scrubber —
// but offline, against closed files, with a per-table report and an exit
// code CI can gate on.
func verifyMain(args []string) {
	fl := flag.NewFlagSet("verify", flag.ExitOnError)
	rows := fl.Int("rows", 2000, "rows to write per flushed table")
	tables := fl.Int("tables", 4, "SSTables to flush before verifying")
	corrupt := fl.Int("corrupt", 0, "flip one byte in this many tables before the sweep")
	fl.Parse(args)

	fs := vfs.NewMemFS()
	store, err := lsm.Open(lsm.Options{
		FS:                 fs,
		Dir:                "demo",
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
	})
	if err != nil {
		panic(err)
	}
	clock := kv.NewClock(1)
	for g := 0; g < *tables; g++ {
		for i := 0; i < *rows; i++ {
			key := []byte(fmt.Sprintf("row%08d", g**rows+i))
			val := []byte(fmt.Sprintf("value-g%d-%d", g, i))
			if err := store.Put(key, val, clock.Next()); err != nil {
				panic(err)
			}
		}
		if err := store.Flush(); err != nil {
			panic(err)
		}
	}
	if err := store.Close(); err != nil {
		panic(err)
	}

	names, _ := fs.List("demo/")
	var ssts []string
	for _, n := range names {
		if strings.HasSuffix(n, ".sst") {
			ssts = append(ssts, n)
		}
	}
	// Simulated bit rot: XOR one byte inside the first data block of the
	// first -corrupt tables (read-modify-rewrite; the VFS has no WriteAt).
	for i := 0; i < *corrupt && i < len(ssts); i++ {
		f, err := fs.Open(ssts[i])
		if err != nil {
			panic(err)
		}
		size, _ := f.Size()
		buf := make([]byte, size)
		if _, err := f.ReadAt(buf, 0); err != nil {
			panic(err)
		}
		f.Close()
		buf[64] ^= 0xff
		if err := fs.Remove(ssts[i]); err != nil {
			panic(err)
		}
		g, err := fs.Create(ssts[i])
		if err != nil {
			panic(err)
		}
		if _, err := g.Write(buf); err != nil {
			panic(err)
		}
		g.Close()
		fmt.Printf("corrupted %s (byte 64 flipped)\n", ssts[i])
	}

	fmt.Printf("verifying %d tables\n", len(ssts))
	totalBlocks, totalBytes, totalCorrupt := 0, int64(0), 0
	for _, name := range ssts {
		r, err := sstable.Open(fs, name, nil)
		if err != nil {
			// Unreadable metadata (footer, index, filter or checksum section)
			// is corruption too — the whole table is suspect.
			fmt.Printf("  %-40s UNREADABLE: %v\n", name, err)
			totalCorrupt++
			continue
		}
		blocks, bad := r.NumBlocks(), 0
		var bytes int64
		for i := 0; i < blocks; i++ {
			n, err := r.VerifyBlock(i)
			bytes += int64(n)
			if err != nil {
				bad++
				fmt.Printf("  %-40s block %d FAILED: %v\n", name, i, err)
			}
		}
		status := "ok"
		if bad > 0 {
			status = fmt.Sprintf("%d/%d blocks CORRUPT", bad, blocks)
		}
		fmt.Printf("  %-40s %3d blocks %8dB  %s\n", name, blocks, bytes, status)
		totalBlocks += blocks
		totalBytes += bytes
		totalCorrupt += bad
		r.Close()
	}
	fmt.Printf("\nswept %d tables, %d blocks, %d bytes: %d corrupt\n",
		len(ssts), totalBlocks, totalBytes, totalCorrupt)
	if totalCorrupt > 0 {
		os.Exit(1)
	}
}

// statsMain implements `lsmtool stats`: flush -tables SSTables, then re-open
// each one cold and print its physical layout — blocks, entries, restart
// points and the max timestamp point reads skip the table by.
func statsMain(args []string) {
	fl := flag.NewFlagSet("stats", flag.ExitOnError)
	rows := fl.Int("rows", 2000, "rows to write per flushed table")
	tables := fl.Int("tables", 4, "SSTables to flush before inspecting")
	fl.Parse(args)

	fs := vfs.NewMemFS()
	store, err := lsm.Open(lsm.Options{
		FS:                 fs,
		Dir:                "demo",
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
	})
	if err != nil {
		panic(err)
	}
	clock := kv.NewClock(1)
	for g := 0; g < *tables; g++ {
		for i := 0; i < *rows; i++ {
			key := []byte(fmt.Sprintf("row%08d", g**rows+i))
			val := []byte(fmt.Sprintf("value-g%d-%d", g, i))
			if err := store.Put(key, val, clock.Next()); err != nil {
				panic(err)
			}
		}
		if err := store.Flush(); err != nil {
			panic(err)
		}
	}
	if err := store.Close(); err != nil {
		panic(err)
	}

	names, _ := fs.List("demo/")
	fmt.Printf("%-36s %7s %8s %9s %8s\n", "table", "blocks", "entries", "restarts", "max ts")
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		r, err := sstable.Open(fs, name, nil)
		if err != nil {
			fmt.Printf("%-36s UNREADABLE: %v\n", name, err)
			continue
		}
		info := r.Info()
		fmt.Printf("%-36s %7d %8d %9d %8d\n", name, info.Blocks, info.Entries, info.Restarts, info.MaxTimestamp)
		r.Close()
	}
}
