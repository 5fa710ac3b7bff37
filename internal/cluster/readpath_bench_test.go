// Read-path scatter-gather benchmarks: the wall-clock effect of issuing
// per-region RPCs concurrently instead of serially, under non-zero simulated
// network latency. Each pair of sub-benchmarks contrasts the serial baseline
// (fan-out 1, or the historical one-RPC-per-row loop) with the parallel
// path, on a table wide enough (≥8 regions) that per-region round trips
// dominate:
//
//	FetchRowsWave       — resolving 32 index hits to rows: serial GetRow
//	                      loop (32 sequential RPCs) vs one MultiScan of
//	                      row specs (one RPC per region, concurrent)
//	MultiScanToAll      — local-index broadcast over every region: fan-out
//	                      1 vs the default fan-out width
//	MultiScanByKey      — global-index range scan across all regions, same
//	                      pair
//
// ns/op carries the simulated RTT, so the RATIO serial/parallel is the
// result; with 16 regions and fan-out 8 the waves should land ≥3× under
// the serial baseline. rpcs/op reports the per-region RPCs each operation
// fanned out into.
package cluster

import (
	"fmt"
	"testing"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/simnet"
)

const (
	benchReadRegions = 16
	benchReadRTT     = 2 * time.Millisecond
)

// benchReadCluster builds a cluster with non-zero network RTT and a raw
// table plus a base table, each split into benchReadRegions regions.
func benchReadCluster(b *testing.B) (*Cluster, *Client) {
	b.Helper()
	c := New(Config{Servers: 8, Net: simnet.Config{RTT: benchReadRTT}})
	b.Cleanup(func() { c.Close() })

	var rawSplits, rowSplits [][]byte
	for i := 1; i < benchReadRegions; i++ {
		rawSplits = append(rawSplits, []byte(fmt.Sprintf("k%03d", i*10)))
		rowSplits = append(rowSplits, []byte(fmt.Sprintf("r%03d", i*10)))
	}
	if err := c.Master.CreateRawTable("idx", rawSplits); err != nil {
		b.Fatal(err)
	}
	if err := c.Master.CreateTable("items", rowSplits); err != nil {
		b.Fatal(err)
	}

	cl := NewClient(c, "bench-load")
	cells := make([]kv.Cell, benchReadRegions*10)
	for i := range cells {
		cells[i] = kv.Cell{
			Key:   []byte(fmt.Sprintf("k%03d", i)),
			Value: []byte(fmt.Sprintf("v%03d", i)),
			Ts:    kv.Timestamp(i + 1),
			Kind:  kv.KindPut,
		}
	}
	if err := cl.MultiApply("idx", cells); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchReadRegions*10; i += 5 {
		row := []byte(fmt.Sprintf("r%03d", i))
		if _, err := cl.Put("items", row, map[string][]byte{"title": []byte(fmt.Sprintf("t%03d", i))}); err != nil {
			b.Fatal(err)
		}
	}
	return c, cl
}

// benchRows returns 32 row keys spread across every region.
func benchRows() [][]byte {
	rows := make([][]byte, 32)
	for i := range rows {
		rows[i] = []byte(fmt.Sprintf("r%03d", (i*5)%(benchReadRegions*10)))
	}
	return rows
}

func reportFanout(b *testing.B, c *Cluster, rpcs0 int64) {
	b.ReportMetric(float64(c.fanoutRPCs.Load()-rpcs0)/float64(b.N), "rpcs/op")
}

func BenchmarkFetchRowsWave(b *testing.B) {
	b.Run("serial-getrow", func(b *testing.B) {
		_, cl := benchReadCluster(b)
		rows := benchRows()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, row := range rows {
				if _, err := cl.GetRow("items", row); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("multiscan-wave", func(b *testing.B) {
		c, cl := benchReadCluster(b)
		var specs []ScanSpec
		for _, row := range benchRows() {
			specs = append(specs, RowSpec(row))
		}
		rpcs0 := c.fanoutRPCs.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.MultiScan("items", specs, kv.MaxTimestamp, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportFanout(b, c, rpcs0)
	})
}

func BenchmarkMultiScanToAllFanout(b *testing.B) {
	for _, width := range []int{1, DefaultReadFanOut} {
		b.Run(fmt.Sprintf("width-%d", width), func(b *testing.B) {
			c, cl := benchReadCluster(b)
			cl.SetFanOut(width)
			rpcs0 := c.fanoutRPCs.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := broadcastScan(cl, "idx", nil, nil, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != benchReadRegions*10 {
					b.Fatalf("got %d results", len(results))
				}
			}
			b.StopTimer()
			reportFanout(b, c, rpcs0)
		})
	}
}

func BenchmarkMultiScanByKeyFanout(b *testing.B) {
	for _, width := range []int{1, DefaultReadFanOut} {
		b.Run(fmt.Sprintf("width-%d", width), func(b *testing.B) {
			c, cl := benchReadCluster(b)
			cl.SetFanOut(width)
			rpcs0 := c.fanoutRPCs.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := rawScan(cl, "idx", nil, nil, kv.MaxTimestamp, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != benchReadRegions*10 {
					b.Fatalf("got %d results", len(results))
				}
			}
			b.StopTimer()
			reportFanout(b, c, rpcs0)
		})
	}
}
