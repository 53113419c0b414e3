// Package tpcc is the payment side of a scaled-down TPC-C database:
// warehouses → districts → customers, with the ledgers the payment
// transaction moves together. It is what stmtorture's ledger workload drives
// on every TM — dense arrays of stm.Words, nothing else. The full five-profile
// mix the paper leaves as future work (§5) is not here; ROADMAP parks it as a
// future benchmark/ workload.
package tpcc

import "repro/internal/stm"

// Config sizes the database. TPC-C's nominal scale (10 districts per
// warehouse, 3000 customers per district) shrinks by default so
// single-machine runs stay fast; ratios are preserved.
type Config struct {
	Warehouses    int
	DistrictsPerW int
	CustomersPerD int
}

func (c *Config) fill() {
	if c.Warehouses == 0 {
		c.Warehouses = 2
	}
	if c.DistrictsPerW == 0 {
		c.DistrictsPerW = 10
	}
	if c.CustomersPerD == 0 {
		c.CustomersPerD = 64
	}
}

// DB is the transactional database.
type DB struct {
	cfg Config

	// Warehouse / district ledgers (payment hot spots).
	warehouseYTD []stm.Word
	districtYTD  []stm.Word
	// Customers.
	custBalance []stm.Word
	custYTD     []stm.Word
}

// New creates a database with all ledgers zero.
func New(cfg Config) *DB {
	cfg.fill()
	nD := cfg.Warehouses * cfg.DistrictsPerW
	nC := nD * cfg.CustomersPerD
	return &DB{
		cfg:          cfg,
		warehouseYTD: make([]stm.Word, cfg.Warehouses),
		districtYTD:  make([]stm.Word, nD),
		custBalance:  make([]stm.Word, nC),
		custYTD:      make([]stm.Word, nC),
	}
}

// Cfg returns the database sizing.
func (db *DB) Cfg() Config { return db.cfg }

// district returns the flat district index.
func (db *DB) district(w, d int) int { return w*db.cfg.DistrictsPerW + d }

// customer returns the flat customer index.
func (db *DB) customer(w, d, c int) int {
	return db.district(w, d)*db.cfg.CustomersPerD + c
}

// Payment runs the payment transaction: the warehouse and district ledgers
// and the customer's balance move together (the invariant the consistency
// checks audit).
func (db *DB) Payment(th stm.Thread, w, d, c int, amount uint64) bool {
	dIdx := db.district(w, d)
	cIdx := db.customer(w, d, c)
	return th.Atomic(func(tx stm.Txn) {
		tx.Write(&db.warehouseYTD[w], tx.Read(&db.warehouseYTD[w])+amount)
		tx.Write(&db.districtYTD[dIdx], tx.Read(&db.districtYTD[dIdx])+amount)
		tx.Write(&db.custBalance[cIdx], tx.Read(&db.custBalance[cIdx])+amount)
		tx.Write(&db.custYTD[cIdx], tx.Read(&db.custYTD[cIdx])+amount)
	})
}

// WarehouseYTD atomically reads warehouse w's ledger and the sum of its
// districts' ledgers — the consistency audit used by tests and the torture
// harness.
func (db *DB) WarehouseYTD(th stm.Thread, w int) (wYTD, dSum uint64, ok bool) {
	ok = th.ReadOnly(func(tx stm.Txn) {
		wYTD = tx.Read(&db.warehouseYTD[w])
		dSum = 0
		for d := 0; d < db.cfg.DistrictsPerW; d++ {
			dSum += tx.Read(&db.districtYTD[db.district(w, d)])
		}
	})
	return
}
