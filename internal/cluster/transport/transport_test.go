package transport

import (
	"bufio"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/tensor"
)

// exerciseNetwork runs the same conversation over any Network: dial,
// exchange frames both ways, verify ordering, then close and observe EOF.
func exerciseNetwork(t *testing.T, net Network, addr string) {
	t.Helper()
	lis, err := net.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer lis.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, err := lis.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		defer server.Close()
		for i := 0; ; i++ {
			f, err := server.Recv()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Errorf("server Recv: %v", err)
				return
			}
			if int(f.Step) != i {
				t.Errorf("server got step %d, want %d", f.Step, i)
			}
			// Echo with the kind flipped.
			if err := server.Send(wire.Control(wire.KindStepGo, f.Dev, f.Step)); err != nil {
				t.Errorf("server Send: %v", err)
				return
			}
		}
	}()

	client, err := net.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	payload := wire.EncodeTensor(wire.KindOutput, 1, 0, tensor.Ones(2, 3, 4, 4))
	for i := 0; i < 50; i++ {
		f := &wire.Frame{Kind: wire.KindOutput, Dev: 1, Step: int32(i), Payload: payload.Payload}
		if err := client.Send(f); err != nil {
			t.Fatalf("client Send %d: %v", i, err)
		}
		echo, err := client.Recv()
		if err != nil {
			t.Fatalf("client Recv %d: %v", i, err)
		}
		if echo.Kind != wire.KindStepGo || int(echo.Step) != i {
			t.Fatalf("echo %d: got %+v", i, echo)
		}
	}
	client.Close()
	wg.Wait()
}

func TestLoopbackConversation(t *testing.T) {
	exerciseNetwork(t, NewLoopback(), "")
}

func TestTCPConversation(t *testing.T) {
	exerciseNetwork(t, TCP{}, "127.0.0.1:0")
}

func TestLoopbackDialUnknownAddr(t *testing.T) {
	if _, err := NewLoopback().Dial("nowhere"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
}

func TestLoopbackAddrReuseRejected(t *testing.T) {
	n := NewLoopback()
	l, err := n.Listen("a")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if _, err := n.Listen("a"); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
	l.Close()
	// After close, the address is free again and dialing it fails.
	if _, err := n.Dial("a"); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
	if _, err := n.Listen("a"); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
}

func TestLoopbackCloseUnblocksRecv(t *testing.T) {
	n := NewLoopback()
	lis, _ := n.Listen("")
	done := make(chan error, 1)
	go func() {
		server, err := lis.Accept()
		if err != nil {
			done <- err
			return
		}
		_, err = server.Recv()
		done <- err
	}()
	client, err := n.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	client.Close()
	if err := <-done; err != io.EOF {
		t.Fatalf("Recv after peer close: got %v, want io.EOF", err)
	}
}

func TestLoopbackListenerCloseUnblocksAccept(t *testing.T) {
	n := NewLoopback()
	lis, _ := n.Listen("")
	done := make(chan error, 1)
	go func() {
		_, err := lis.Accept()
		done <- err
	}()
	lis.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("Accept after close: got %v, want ErrClosed", err)
	}
}

// TestLoopbackDrainBeforeEOF: frames sent before Close are still
// delivered — Close ends the stream, it does not drop queued frames.
func TestLoopbackDrainBeforeEOF(t *testing.T) {
	n := NewLoopback()
	lis, _ := n.Listen("")
	accepted := make(chan Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		accepted <- c
	}()
	client, err := n.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := client.Send(wire.Control(wire.KindStepDone, 0, int32(i))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	client.Close()
	server := <-accepted
	for i := 0; i < 10; i++ {
		f, err := server.Recv()
		if err != nil {
			t.Fatalf("Recv %d after close: %v", i, err)
		}
		if int(f.Step) != i {
			t.Fatalf("Recv %d: got step %d", i, f.Step)
		}
	}
	if _, err := server.Recv(); err != io.EOF {
		t.Fatalf("after drain: got %v, want io.EOF", err)
	}
}

// TestTCPRejectsGarbagePeer: a TCP conn fed non-frame bytes surfaces a
// decode error rather than hanging or panicking.
func TestTCPRejectsGarbagePeer(t *testing.T) {
	lis, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer lis.Close()
	go func() {
		server, err := lis.Accept()
		if err != nil {
			return
		}
		// Not a wire frame.
		if tc, ok := server.(*tcpConn); ok {
			tc.c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
		}
		server.Close()
	}()
	client, err := TCP{}.Dial(lis.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	if _, err := client.Recv(); err == nil {
		t.Fatal("garbage bytes decoded as a frame")
	}
}

// TestTCPReadBuffersAreReused: a TCP connection reads through a 64 KiB
// buffered reader from the process-wide cache, which takes it back once
// the connection's Recv has failed and keeps it through a garbage
// collection: opening and closing a warm connection pair allocates no
// read buffer.
func TestTCPReadBuffersAreReused(t *testing.T) {
	lis, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer lis.Close()
	// cycle opens a pair, sends a frame each way and closes it as a
	// session ends: each side's reader sees the close.
	cycle := func() (used [2]*bufio.Reader) {
		client, err := TCP{}.Dial(lis.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		server, err := lis.Accept()
		if err != nil {
			t.Fatalf("Accept: %v", err)
		}
		ends := [2]*tcpConn{client.(*tcpConn), server.(*tcpConn)}
		for i, c := range ends {
			used[i] = c.r
			if err := c.Send(wire.PooledControl(wire.KindHeartbeat, wire.NoDev, wire.NoStep)); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		for _, c := range ends {
			f, err := c.Recv()
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			f.Release()
		}
		client.Close()
		for _, c := range ends {
			if _, err := c.Recv(); err == nil {
				t.Fatal("Recv after the pair closed returned a frame")
			}
			if c.r != nil {
				t.Fatal("a connection kept its buffered reader after its Recv failed")
			}
			if _, err := c.Recv(); err == nil {
				t.Fatal("a second Recv after the first failed returned a frame")
			}
		}
		server.Close()
		return used
	}
	cycle()
	runtime.GC()
	var before, after runtime.MemStats
	const pairs = 10
	runtime.ReadMemStats(&before)
	for range pairs {
		// The warm readers sit in the cache, which hands out what it holds.
		var cached []*bufio.Reader
		for len(readers) > 0 {
			cached = append(cached, <-readers)
		}
		for _, r := range cached {
			readers <- r
		}
		for _, r := range cycle() {
			if !slices.Contains(cached, r) {
				t.Fatal("a warm connection read through a buffered reader the cache did not hold")
			}
		}
	}
	runtime.ReadMemStats(&after)
	if perPair := (after.TotalAlloc - before.TotalAlloc) / pairs; perPair >= 1<<16 {
		t.Errorf("a warm connection pair allocates %d bytes, a read buffer's worth", perPair)
	}
}
