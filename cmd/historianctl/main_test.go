package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uncharted/internal/historian"
	"uncharted/internal/iec104"
	"uncharted/internal/physical"
	"uncharted/internal/protocol"
)

// TestLsRowTypeColumn: the TYPE column names the point in its own
// dialect. A PointType's high byte is the protocol; narrowing it to an
// IEC 104 TypeID listed a PMU frequency as M_SP_NA_1 and a phasor and
// a Modbus holding register both as M_DP_NA_1.
func TestLsRowTypeColumn(t *testing.T) {
	for _, tc := range []struct {
		typ     physical.PointType
		command bool
		want    string
		dir     string
	}{
		{physical.IEC104Type(iec104.MMeTf), false, "M_ME_TF_1", "mon"},
		{physical.IEC104Type(iec104.CSeNc), true, "C_SE_NC_1", "cmd"},
		{physical.TypeOf(protocol.C37118, protocol.C37PointFreq), false, "FREQ", "mon"},
		{physical.TypeOf(protocol.C37118, protocol.C37PointPhasor), false, "PHASOR", "mon"},
		{physical.TypeOf(protocol.Modbus, 3), false, "HOLDING", "mon"},
		{physical.TypeOf(protocol.Modbus, 6), true, "W_REG", "cmd"},
	} {
		row := lsRow(historian.PointInfo{
			Key:     historian.PointKey{Station: "S1", IOA: 3001},
			Type:    tc.typ,
			Command: tc.command,
			Samples: 12,
		})
		f := strings.Fields(row)
		if len(f) < 4 || f[0] != "S1" || f[1] != "3001" || f[2] != tc.want || f[3] != tc.dir {
			t.Errorf("type %#04x: row %q, want type %s dir %s", uint16(tc.typ), row, tc.want, tc.dir)
		}
	}
}

// TestRefusesNonHistorianDir: historianctl inspects a historian and
// never creates one. Pointed at a missing directory, or at one that
// holds no segment (a typo, or -dir /tmp), every subcommand exits 1 and
// writes nothing there.
func TestRefusesNonHistorianDir(t *testing.T) {
	root := t.TempDir()
	missing := filepath.Join(root, "typo")
	empty := filepath.Join(root, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	defer func(args []string) { os.Args = args }(os.Args)
	for _, sub := range []string{"ls", "get", "export", "compact"} {
		for _, dir := range []string{missing, empty} {
			os.Args = []string{"historianctl", sub, "-dir", dir}
			if code := run(); code != 1 {
				t.Errorf("historianctl %s -dir %s: exit %d, want 1", sub, dir, code)
			}
		}
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("%s was created (stat: %v)", missing, err)
	}
	if entries, err := os.ReadDir(empty); err != nil || len(entries) != 0 {
		t.Errorf("%s holds %d entries after the runs (%v), want none", empty, len(entries), err)
	}
}
