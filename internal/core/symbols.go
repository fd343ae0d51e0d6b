package core

// symCatalogue groups the records by slope-symbol string, so that pattern
// and peak-count queries evaluate each distinct string once however many
// records share it. A group is an ordinal into flat columns. It holds no
// member ids: DB.idGroup keeps each id's ordinal beside it in the sorted
// DB.ids, so a query walks the groups once and then makes one pass over
// the id column, emitting in id order. Guarded by DB.imu.
type symCatalogue struct {
	symbols []string // the group's symbol string; "" once emptied
	peaks   []int32  // the peak count every member has
	members []int32  // live members; 0 marks a free ordinal
	free    []int32  // emptied ordinals, reused before the columns grow
	// ordinal finds a string's group for link and Remove; no query
	// reads it.
	ordinal map[string]int32
}

func newSymCatalogue() symCatalogue {
	return symCatalogue{ordinal: make(map[string]int32)}
}

// add counts one more member into the group of symbol string syms,
// forming the group (on a free ordinal when there is one) if it is new,
// and returns the group's ordinal. peaks is the count every member has:
// feature.Peaks derives it from the symbol string alone, so the member
// that forms a group speaks for all.
func (c *symCatalogue) add(syms string, peaks int) int32 {
	g, ok := c.ordinal[syms]
	if !ok {
		if n := len(c.free); n > 0 {
			g, c.free = c.free[n-1], c.free[:n-1]
			c.symbols[g], c.peaks[g] = syms, int32(peaks)
		} else {
			g = int32(len(c.symbols))
			c.symbols = append(c.symbols, syms)
			c.peaks = append(c.peaks, int32(peaks))
			c.members = append(c.members, 0)
		}
		c.ordinal[syms] = g
	}
	c.members[g]++
	return g
}

// drop counts one member out of group g and frees the ordinal when that
// was the last.
func (c *symCatalogue) drop(g int32) {
	if c.members[g]--; c.members[g] > 0 {
		return
	}
	delete(c.ordinal, c.symbols[g])
	c.symbols[g], c.peaks[g] = "", 0
	c.free = append(c.free, g)
}

// groups is the number of live groups.
func (c *symCatalogue) groups() int { return len(c.ordinal) }
