package flows

import (
	"net/netip"
	"testing"

	"repro/internal/pkt"
)

// hashCase is one frame HashOf must agree with KeyOf on, plus the key
// KeyOf is expected to extract (ok=false: no flow identity).
type hashCase struct {
	name  string
	frame []byte
	want  Key
	ok    bool
}

func key(src, dst string, sp, dp uint16, proto uint8) Key {
	return Key{SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst),
		SrcPort: sp, DstPort: dp, Proto: proto}
}

// edit returns a copy of frame with fn applied.
func edit(frame []byte, fn func(b []byte)) []byte {
	b := append([]byte(nil), frame...)
	fn(b)
	return b
}

// withIPOptions rebuilds a UDP frame with an IPv4 header of ihl words,
// the options zero-filled, so the transport header moves back.
func withIPOptions(frame []byte, ihl int) []byte {
	const eth = pkt.EthernetHeaderLen
	extra := ihl*4 - pkt.IPv4HeaderLen
	b := make([]byte, 0, len(frame)+extra)
	b = append(b, frame[:eth+pkt.IPv4HeaderLen]...)
	b = append(b, make([]byte, extra)...)
	b = append(b, frame[eth+pkt.IPv4HeaderLen:]...)
	b[eth] = 0x40 | byte(ihl)
	return b
}

func hashCases() []hashCase {
	udp := udpFrame("10.0.0.2", "10.0.0.1", 53, 1000, 100)
	tcp := tcpFrame("192.168.1.7", "10.9.8.7", 40000, 443, pkt.TCPFlagSYN)
	const eth, ip = pkt.EthernetHeaderLen, pkt.EthernetHeaderLen + pkt.IPv4HeaderLen
	udpKey := key("10.0.0.1", "10.0.0.2", 1000, 53, pkt.ProtoUDP)
	tcpKey := key("10.9.8.7", "192.168.1.7", 443, 40000, pkt.ProtoTCP)
	noPorts := func(k Key) Key { k.SrcPort, k.DstPort = 0, 0; return k }
	arp := make([]byte, 60)
	pkt.EncodeEthernet(arp, pkt.Ethernet{EtherType: pkt.EtherTypeARP})
	return []hashCase{
		{"udp", udp, udpKey, true},
		{"udp-reversed", udpFrame("10.0.0.1", "10.0.0.2", 1000, 53, 100), udpKey, true},
		{"udp-same-host", udpFrame("10.0.0.5", "10.0.0.5", 9000, 22, 64),
			key("10.0.0.5", "10.0.0.5", 22, 9000, pkt.ProtoUDP), true},
		{"udp-checksummed", pkt.BuildUDP(nil, pkt.UDPSpec{
			SrcIP: netip.MustParseAddr("255.255.255.255"), DstIP: netip.MustParseAddr("0.0.0.0"),
			SrcPort: 65535, DstPort: 0, FrameLen: 1514, Checksum: true,
		}), key("0.0.0.0", "255.255.255.255", 0, 65535, pkt.ProtoUDP), true},
		{"tcp", tcp, tcpKey, true},
		{"icmp", edit(udp, func(b []byte) { b[eth+9] = pkt.ProtoICMP }),
			Key{SrcIP: udpKey.SrcIP, DstIP: udpKey.DstIP, Proto: pkt.ProtoICMP}, true},
		{"empty", nil, Key{}, false},
		{"short-ethernet", udp[:eth-1], Key{}, false},
		{"ethernet-only", udp[:eth], Key{}, false},
		{"short-ipv4", udp[:ip-1], Key{}, false},
		{"ipv4-only", udp[:ip], noPorts(udpKey), true},
		{"short-udp", udp[:ip+pkt.UDPHeaderLen-1], noPorts(udpKey), true},
		{"udp-header-only", udp[:ip+pkt.UDPHeaderLen], udpKey, true},
		{"short-tcp", tcp[:ip+pkt.TCPHeaderLen-1], noPorts(tcpKey), true},
		{"tcp-offset-4", edit(tcp, func(b []byte) { b[ip+12] = 4 << 4 }), noPorts(tcpKey), true},
		{"tcp-offset-0", edit(tcp, func(b []byte) { b[ip+12] = 0 }), noPorts(tcpKey), true},
		{"tcp-offset-past-frame", edit(tcp, func(b []byte) { b[ip+12] = 15 << 4 }), tcpKey, true},
		{"arp", arp, Key{}, false},
		{"ipv6-ethertype", edit(udp, func(b []byte) { b[12], b[13] = 0x86, 0xdd }), Key{}, false},
		{"vlan-ethertype", edit(udp, func(b []byte) { b[12], b[13] = 0x81, 0x00 }), Key{}, false},
		{"ip-version-6", edit(udp, func(b []byte) { b[eth] = 0x65 }), Key{}, false},
		{"ihl-0", edit(udp, func(b []byte) { b[eth] = 0x40 }), Key{}, false},
		{"ihl-4", edit(udp, func(b []byte) { b[eth] = 0x44 }), Key{}, false},
		{"ihl-past-frame", edit(udp[:ip+8], func(b []byte) { b[eth] = 0x4f }), Key{}, false},
		{"ihl-6-options", withIPOptions(udp, 6), udpKey, true},
		{"ihl-15-no-transport", withIPOptions(udp, 15)[:eth+60], noPorts(udpKey), true},
	}
}

// TestHashOfEdgeCases pins HashOf on every acceptance rule of the
// decoders it mirrors: each frame yields the expected key (checked
// through KeyOf, the reference) and HashOf returns that key's hash.
func TestHashOfEdgeCases(t *testing.T) {
	for _, c := range hashCases() {
		t.Run(c.name, func(t *testing.T) {
			k, ok := KeyOf(c.frame)
			if ok != c.ok || k != c.want {
				t.Fatalf("KeyOf = %v, %v; want %v, %v", k, ok, c.want, c.ok)
			}
			h, hok := HashOf(c.frame)
			if hok != c.ok {
				t.Fatalf("HashOf ok = %v, want %v", hok, c.ok)
			}
			if c.ok && h != c.want.Hash() {
				t.Fatalf("HashOf = %#x, want %#x", h, c.want.Hash())
			}
		})
	}
}

// TestHashOfAllocationFree: the per-packet flow hash of the capture path
// allocates nothing.
func TestHashOfAllocationFree(t *testing.T) {
	frame := udpFrame("10.0.0.1", "10.0.0.2", 1000, 53, 100)
	if n := testing.AllocsPerRun(100, func() { HashOf(frame) }); n != 0 {
		t.Fatalf("HashOf allocates %.0f objects per call", n)
	}
}

// FuzzHashOf checks HashOf against its reference: for any bytes it must
// agree with KeyOf on whether the frame has a flow identity and, when it
// has one, return exactly KeyOf(frame).Hash().
func FuzzHashOf(f *testing.F) {
	for _, c := range hashCases() {
		f.Add(c.frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		h, ok := HashOf(frame)
		k, kok := KeyOf(frame)
		if ok != kok {
			t.Fatalf("HashOf ok = %v, KeyOf ok = %v", ok, kok)
		}
		if ok && h != k.Hash() {
			t.Fatalf("HashOf = %#x, KeyOf(frame).Hash() = %#x (key %v)", h, k.Hash(), k)
		}
	})
}
