//go:build !(linux && (amd64 || arm64))

package udpnet

// Platforms without sendmmsg/recvmmsg (or whose syscall numbers this
// package does not pin) fall back to the portable per-datagram path:
// Broadcast frames and writes synchronously and the receive loop reads
// one datagram per syscall, the path Linux tests reach through
// listen(..., batched=false).

const batchSupported = false

// batchState is unused on this platform.
type batchState struct{}

func newBatchState(e *Endpoint) (*batchState, error) { return nil, nil }

// sendFramesBatched is unreachable: listen never batches when
// batchSupported is false, so the send loop never starts.
func (e *Endpoint) sendFramesBatched(frames [][]byte) {
	panic("udpnet: batched send on a platform without sendmmsg")
}

func (e *Endpoint) readLoopBatched() { e.readLoopSequential() }
