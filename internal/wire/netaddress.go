package wire

import (
	"net"
	"time"
)

// NetAddress defines information about a peer on the network as carried in
// ADDR messages and the VERSION message. The timestamp is omitted on the
// wire inside VERSION messages, matching the protocol.
type NetAddress struct {
	// Timestamp is the last time the address was seen. Not present in
	// VERSION messages nor in protocol versions before 31402.
	Timestamp time.Time

	// Services advertised by the node at this address.
	Services ServiceFlag

	// IP address, always stored as 16 bytes (IPv4 uses the mapped form).
	IP net.IP

	// Port the node is listening on, big-endian on the wire.
	Port uint16
}

// HasService reports whether the address advertises the given service.
func (na *NetAddress) HasService(service ServiceFlag) bool {
	return na.Services&service == service
}

// AddService adds a service to the advertised set.
func (na *NetAddress) AddService(service ServiceFlag) {
	na.Services |= service
}

// NewNetAddressIPPort returns a NetAddress with the current fields set and a
// zero timestamp (callers stamping ADDR entries set Timestamp themselves).
func NewNetAddressIPPort(ip net.IP, port uint16, services ServiceFlag) *NetAddress {
	return &NetAddress{
		Services: services,
		IP:       ip,
		Port:     port,
	}
}

// NewNetAddress converts a net.TCPAddr into a NetAddress.
func NewNetAddress(addr *net.TCPAddr, services ServiceFlag) *NetAddress {
	return NewNetAddressIPPort(addr.IP, uint16(addr.Port), services)
}

// maxNetAddressPayload is the wire size of a NetAddress with timestamp.
const maxNetAddressPayload = 4 + 8 + 16 + 2

// readNetAddress decodes into na. The 16 address bytes are copied over the IP
// storage na already owns, so a reused decode target costs no allocation;
// they are always copied, never aliased, because the payload is a pooled
// buffer its owner releases after dispatch.
func readNetAddress(d *decoder, na *NetAddress, withTimestamp bool) {
	if withTimestamp {
		na.Timestamp = time.Unix(int64(d.uint32()), 0)
	}
	na.Services = ServiceFlag(d.uint64())
	b, ok := d.take(net.IPv6len)
	if !ok {
		return
	}
	if cap(na.IP) >= len(b) {
		na.IP = append(na.IP[:0], b...)
	} else {
		na.IP = ownIP(b)
	}
	na.Port = d.uint16BE()
}

// ownIP keeps the one allocation of a target with no address storage yet (an
// ADDR entry, a connection's first VERSION) out of readNetAddress.
func ownIP(b []byte) net.IP { return append(net.IP(nil), b...) }

func writeNetAddress(w *Buf, na *NetAddress, withTimestamp bool) {
	if withTimestamp {
		w.putUint32(uint32(na.Timestamp.Unix()))
	}
	w.putUint64(uint64(na.Services))
	var ip [net.IPv6len]byte
	if na.IP != nil {
		copy(ip[:], na.IP.To16())
	}
	w.putBytes(ip[:])
	w.putUint16BE(na.Port)
}
