package keys

// ContextID identifies a (hardware thread, privilege) combination — the
// granularity at which HyBP physically isolates key material (paper Section
// V-D: "each (thread, privilege) combination has its own set of keys").
type ContextID struct {
	Thread uint8
	Priv   Privilege
}

// Privilege is the execution privilege level.
type Privilege uint8

// Privilege levels considered by the paper (user and kernel).
const (
	User Privilege = iota
	Kernel
)

// String implements fmt.Stringer.
func (p Privilege) String() string {
	if p == Kernel {
		return "kernel"
	}
	return "user"
}

// Manager owns one keys Table per (thread, privilege) context of an SMT
// core: four tables for SMT-2 (paper Section VII-D). BTB and PHT share the
// tables (Section VI-C: "BTB and PHT can share the random tables without
// security degradation").
type Manager struct {
	cfg Config
	// tables is indexed by thread<<1 | priv — dense and tiny (4 entries
	// for SMT-2), so the per-access table resolution is an indexed load
	// rather than a map probe. Slots are created on first use.
	tables []*Table
}

// NewManager builds a Manager that lazily creates per-context tables from
// cfg (each with a seed perturbed by the context identity).
func NewManager(cfg Config) *Manager {
	return &Manager{cfg: cfg}
}

func (id ContextID) slot() int { return int(id.Thread)<<1 | int(id.Priv&1) }

// Table returns the keys table for id, creating it on first use.
func (m *Manager) Table(id ContextID) *Table {
	s := id.slot()
	if s < len(m.tables) {
		if t := m.tables[s]; t != nil {
			return t
		}
	} else {
		grown := make([]*Table, s+1)
		copy(grown, m.tables)
		m.tables = grown
	}
	cfg := m.cfg
	cfg.Seed ^= (uint64(id.Thread)+1)<<20 ^ (uint64(id.Priv)+1)<<8 ^ 0x9E37
	t := NewTable(cfg)
	m.tables[s] = t
	return t
}

// OnContextSwitch renews both privilege tables of the hardware thread that
// is switching software contexts, binding them to the incoming ASID/VMID.
// Per the paper, key changes ride on context switches because the interval
// (≥4 ms, 2^24+ cycles) is comfortably below the 2^27-access attack bound.
func (m *Manager) OnContextSwitch(thread uint8, asid, vmid uint16, now uint64) {
	for priv := User; priv <= Kernel; priv++ {
		t := m.Table(ContextID{Thread: thread, Priv: priv})
		t.Bind(asid, vmid)
		t.Refresh(now)
	}
}

// NoteAccess counts an access against id's table, refreshing it when the
// access threshold fires; it reports whether a refresh happened.
func (m *Manager) NoteAccess(id ContextID, now uint64) bool {
	t := m.Table(id)
	if t.NoteAccess() {
		t.Refresh(now)
		return true
	}
	return false
}

// StorageBits sums the code-book SRAM across the given number of hardware
// threads (threads × 2 privilege levels × table size) — 5 KB for the
// paper's SMT-2 instance.
func (m *Manager) StorageBits(threads int) int {
	return threads * 2 * m.cfg.StorageBits()
}

// TotalRefreshes sums refresh counts across all live tables.
func (m *Manager) TotalRefreshes() uint64 {
	var n uint64
	for _, t := range m.tables {
		if t != nil {
			n += t.Refreshes()
		}
	}
	return n
}
