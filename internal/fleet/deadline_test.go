package fleet

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"stateowned/internal/serve"
)

// TestStageOutlastsWriteTimeout is the regression test for a stage
// build that runs past the shard's WriteTimeout: the control plane must
// lift its own write deadline for the build, so the coordinator reads a
// 200 StageAck instead of EOF on a connection the server gave up on.
// It needs a real listener: the write deadline lives on the connection.
func TestStageOutlastsWriteTimeout(t *testing.T) {
	store := shardStore(fleetConfig{seed: 42, scale: 0.05, retain: 4})
	part, err := ComputePartition(store.Current().Result.Dataset, 2)
	if err != nil {
		t.Fatalf("computing partition: %v", err)
	}
	const writeTimeout = 200 * time.Millisecond
	sh := NewShardServer(store, part, 0, serve.Options{WriteTimeout: writeTimeout})
	store.SetBuildHook(func(int) { time.Sleep(3 * writeTimeout) })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- sh.Serve(ctx, ln) }()
	defer func() {
		cancel()
		<-served
	}()

	resp, err := http.Post("http://"+ln.Addr().String()+StagePath+"?gen=1", "application/json", nil)
	if err != nil {
		t.Fatalf("stage past the write timeout failed: %v (want a 200 ack)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stage status = %d, want 200", resp.StatusCode)
	}
	var ack StageAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatalf("decoding the stage ack: %v", err)
	}
	if ack.Gen != 1 || !ack.Done {
		t.Fatalf("stage ack = %+v, want gen 1 done", ack)
	}
}
