package core

import (
	"fmt"
	"sync"

	"diffindex/internal/kv"
)

// Catalog stores index metadata, standing in for the Big SQL catalog that
// "stores index metadata and also puts a copy in the HBase table descriptor"
// (§7). It is safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	byTable map[string][]IndexDef
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byTable: make(map[string][]IndexDef)}
}

// Add registers an index definition. Adding a duplicate (same table and
// columns) fails.
func (c *Catalog) Add(def IndexDef) error {
	if err := def.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.byTable[def.Table] {
		if d.Name() == def.Name() {
			return fmt.Errorf("core: index %s already exists", def.Name())
		}
	}
	c.byTable[def.Table] = append(c.byTable[def.Table], def)
	return nil
}

// Remove unregisters an index definition by name.
func (c *Catalog) Remove(table, name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	defs := c.byTable[table]
	for i, d := range defs {
		if d.Name() == name {
			c.byTable[table] = append(defs[:i], defs[i+1:]...)
			return true
		}
	}
	return false
}

// IndexesOn returns the indexes defined on a table (a copy).
func (c *Catalog) IndexesOn(table string) []IndexDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]IndexDef(nil), c.byTable[table]...)
}

// Find returns the index on the given table and column list, matching the
// column order exactly.
func (c *Catalog) Find(table string, columns ...string) (IndexDef, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, d := range c.byTable[table] {
		if len(d.Columns) != len(columns) {
			continue
		}
		match := true
		for i := range columns {
			if d.Columns[i] != columns[i] {
				match = false
				break
			}
		}
		if match {
			return d, true
		}
	}
	return IndexDef{}, false
}

// indexValue computes an index's value bytes from a row's column values.
// ok is false when any indexed column is absent (rows with missing indexed
// columns have no index entry, the usual NULL semantics).
func indexValue(def IndexDef, cols map[string][]byte) ([]byte, bool) {
	return kv.IndexValueFromColumns(def.Columns, cols)
}
