package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"daccor/internal/monitor"
	"daccor/internal/msr"
)

// TestAnalyzerOutputPinned pins what monitor + analyzer make of a
// fixed trace: the SHA-256 of the transaction stream and of the
// analyzer's checkpoint bytes. The trace is long enough for both
// tables to evict, so a change to the key hash, to deduplication or to
// the transaction buffer that moved a single transaction, count or LRU
// position shows here. The digests were recorded before the monitor
// reused its transaction buffer and before the synopsis switched from
// maphash to its own key hash; neither change may move them.
func TestAnalyzerOutputPinned(t *testing.T) {
	prof, err := msr.ProfileByName("wdev")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := prof.Generate(50_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := staticCfg(100*time.Microsecond, 1024)
	cfg.KeepTransactions = true
	cfg.Monitor.MaxRequests = 4
	p, err := AnalyzeTrace(gen.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Analyzer().Stats(); st.ItemEvictions == 0 || st.PairEvictions == 0 {
		t.Fatalf("the pinned trace should evict from both tables: %+v", st)
	}
	if st := p.Monitor().Stats(); st.Duplicates == 0 || st.CapSplits == 0 {
		t.Fatalf("the pinned trace should dedup and cut by the cap: %+v", st)
	}

	txs := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		txs.Write(word[:])
	}
	for _, tx := range p.Transactions() {
		put(uint64(tx.Start))
		put(uint64(tx.End))
		put(uint64(tx.Requests))
		put(uint64(len(tx.Extents)))
		for i, e := range tx.Extents {
			put(e.Block)
			put(uint64(e.Len)<<8 | uint64(tx.Ops[i]))
		}
	}
	ckpt := sha256.New()
	if _, err := p.Analyzer().WriteTo(ckpt); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what, got, want string
	}{
		{"transaction stream", hex.EncodeToString(txs.Sum(nil)),
			"3d94fb8947db85f4e2e62addb28cdfb48aff950d6d4621317ef3a0fe9c7916f9"},
		{"checkpoint", hex.EncodeToString(ckpt.Sum(nil)),
			"b994e264360f8cc831f4fe4f21227a185f667fa67564aa37620eaca22fda4605"},
	} {
		if c.got != c.want {
			t.Errorf("%s: sha256 %s, pinned %s", c.what, c.got, c.want)
		}
	}
}

// TestKeptTransactionsOutliveTheBorrow holds the two sinks that keep
// transactions to the monitor's borrow contract: the monitor reuses a
// transaction's slices once its sink returns, so monitor.Collect and a
// pipeline under KeepTransactions must each keep a copy. Each kept
// transaction is compared, after the whole trace has run, with the
// transaction as a third sink saw it during its own call.
func TestKeptTransactionsOutliveTheBorrow(t *testing.T) {
	prof, err := msr.ProfileByName("wdev")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := prof.Generate(20_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := staticCfg(100*time.Microsecond, 1024)
	cfg.KeepTransactions = true
	cfg.Monitor.MaxRequests = 4

	var lent []string
	m, err := monitor.New(cfg.Monitor, func(tx monitor.Transaction) { lent = append(lent, fmt.Sprint(tx)) })
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(gen.Trace.Source()); err != nil {
		t.Fatal(err)
	}
	collected, err := monitor.Collect(gen.Trace, cfg.Monitor)
	if err != nil {
		t.Fatal(err)
	}
	p, err := AnalyzeTrace(gen.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, kept := range []struct {
		by  string
		txs []monitor.Transaction
	}{{"monitor.Collect", collected}, {"Pipeline.Transactions", p.Transactions()}} {
		if len(kept.txs) != len(lent) {
			t.Fatalf("%s kept %d transactions, the monitor lent %d", kept.by, len(kept.txs), len(lent))
		}
		for i, tx := range kept.txs {
			if got := fmt.Sprint(tx); got != lent[i] {
				t.Fatalf("%s: transaction %d of %d changed after its sink returned:\n kept %s\n lent %s",
					kept.by, i, len(lent), got, lent[i])
			}
		}
	}
}
