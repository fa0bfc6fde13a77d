// TCP rendezvous for the socket transport: the multi-host path of the rank
// mesh. The frame codec, handshake, reader-goroutine design and failure
// model are exactly those of the Unix-domain transport (sockets.go) — only
// how peers find each other changes.
//
// Two rendezvous schemes:
//
//   - Explicit host list (NewTCPTransport): every rank is started with the
//     same ordered host0:port,host1:port,... list; rank i listens on
//     hosts[i] and dials every lower rank at its listed address. This is
//     the multi-host production path (mlmd -hosts ... -hostrank i).
//   - Rendezvous directory (NewTCPRendezvousTransport): each rank listens
//     on a kernel-assigned loopback port and publishes the bound address
//     to dir/addr.<rank> (atomically, via temp-file rename); dialers poll
//     the files of lower ranks until they appear. This replaces the unix
//     socket-dir convention for single-host multi-process runs that want
//     the TCP stack end to end (mlmd -procs N -transport tcp).
package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
)

// tcpAddrFile is the rendezvous file rank publishes its bound TCP address
// in (under the shared rendezvous directory). Generation 0 keeps the legacy
// addr.<rank> name; rebuilt meshes publish g<gen>.addr.<rank>, so survivors
// of a shrink-and-resume never dial a stale address left by the dead
// generation (the launcher reuses one rendezvous directory across restarts).
func tcpAddrFile(dir string, rank, gen int) string {
	if gen == 0 {
		return filepath.Join(dir, fmt.Sprintf("addr.%d", rank))
	}
	return filepath.Join(dir, fmt.Sprintf("g%d.addr.%d", gen, rank))
}

// NewTCPTransport connects rank (of size ranks arranged on grid) to its
// peers over TCP with an explicit rendezvous host list: hosts[j] is the
// host:port rank j listens on, and every rank of the run must be started
// with the identical list. Rank i binds hosts[i] (the host part may be
// empty or 0.0.0.0 to listen on all interfaces) and dials every j < i at
// hosts[j]; the versioned handshake validates rank, size and grid on both
// ends, so a wrong or reordered list fails fast.
func NewTCPTransport(hosts []string, rank, size int, grid [3]int, opts SocketOptions) (*SocketTransport, error) {
	if len(hosts) != size {
		return nil, fmt.Errorf("cluster: tcp transport got %d hosts for size %d", len(hosts), size)
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("cluster: tcp transport rank %d of size %d", rank, size)
	}
	for j, h := range hosts {
		if _, _, err := net.SplitHostPort(strings.TrimSpace(h)); err != nil {
			return nil, fmt.Errorf("cluster: tcp transport host %d %q: %w", j, h, err)
		}
	}
	addr := func(j int) (string, error) { return strings.TrimSpace(hosts[j]), nil }
	return newSocketTransport("tcp", strings.TrimSpace(hosts[rank]), nil, addr, rank, size, grid, opts)
}

// ParseHostList splits a comma-separated host0:port,host1:port,... list,
// validating each entry as host:port and rejecting empty lists.
func ParseHostList(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	hosts := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if _, _, err := net.SplitHostPort(p); err != nil {
			return nil, fmt.Errorf("cluster: host list entry %q: %w", p, err)
		}
		hosts = append(hosts, p)
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("cluster: empty host list %q", s)
	}
	return hosts, nil
}

// NewTCPRendezvousTransport connects rank to its peers over loopback TCP
// with a shared rendezvous directory instead of a host list: each rank
// listens on a kernel-assigned 127.0.0.1 port and publishes the bound
// address to dir/addr.<rank> via an atomic temp-file rename, and dialers
// poll lower ranks' files until they appear (bounded by the dial timeout).
func NewTCPRendezvousTransport(dir string, rank, size int, grid [3]int, opts SocketOptions) (*SocketTransport, error) {
	publish := func(ln net.Listener) error {
		return writeFileAtomic(tcpAddrFile(dir, rank, opts.Generation), []byte(ln.Addr().String()))
	}
	addr := func(j int) (string, error) {
		b, err := os.ReadFile(tcpAddrFile(dir, j, opts.Generation))
		if err != nil {
			return "", err // not published yet: dialPeers retries until its deadline
		}
		return strings.TrimSpace(string(b)), nil
	}
	return newSocketTransport("tcp", "127.0.0.1:0", publish, addr, rank, size, grid, opts)
}

// writeFileAtomic writes data to path through a temp file in the same
// directory plus a rename, so concurrent readers see either nothing or the
// complete content — never a partial write.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}
