package protocol

import "testing"

// fakeDialect exercises the registry without importing a real codec.
type fakeDialect struct {
	id   ID
	port uint16
	mag  byte
}

func (d *fakeDialect) ID() ID                 { return d.id }
func (d *fakeDialect) Name() string           { return d.id.String() }
func (d *fakeDialect) Port() uint16           { return d.port }
func (d *fakeDialect) StationInitiates() bool { return false }
func (d *fakeDialect) Sniff(b []byte) bool    { return len(b) > 0 && b[0] == d.mag }
func (d *fakeDialect) Framing() *Framing      { return nil }
func (d *fakeDialect) NewSession() Session    { return nil }

func TestRegistry(t *testing.T) {
	// The registry is package-global; tests must not pollute the slots
	// real codecs register into, so save and restore.
	saved := dialects
	defer func() { dialects = saved }()
	dialects = [numIDs]Dialect{}

	a := &fakeDialect{id: C37118, port: 4712, mag: 0xAA}
	b := &fakeDialect{id: Modbus, port: 502, mag: 0x00}
	Register(a)
	Register(b)

	if Get(C37118) != Dialect(a) || Get(Modbus) != Dialect(b) || Get(IEC104) != nil {
		t.Fatal("Get returned wrong dialects")
	}
	if ByPort(4712) != Dialect(a) || ByPort(502) != Dialect(b) || ByPort(2404) != nil || ByPort(0) != nil {
		t.Fatal("ByPort returned wrong dialects")
	}
	if ByName("c37118") != Dialect(a) || ByName("dnp3") != nil {
		t.Fatal("ByName returned wrong dialects")
	}
	if Detect([]byte{0xAA, 0x01}) != Dialect(a) {
		t.Fatal("Detect missed the sniffing dialect")
	}
	if Detect([]byte{0x7F}) != nil {
		t.Fatal("Detect claimed unknown bytes")
	}
	if got := All(); len(got) != 2 || got[0] != Dialect(a) || got[1] != Dialect(b) {
		t.Fatalf("All() = %v", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(&fakeDialect{id: C37118})
}
