package workload

import (
	"fmt"
	"math/rand"

	"gengc"
)

// Auction is the auction-site mix of the contention matrix (gcbench
// -experiment matrix), shaped after the RUBiS-style buy/bid workloads
// the ddtxn benchmarks drive (zipf.go/buy.go/rubis.go): a catalog of
// long-lived item listings with Zipf-distributed popularity, a table of
// long-lived users, and a stream of operations that is mostly bids —
// each bid allocates a short-lived bid record and links it onto the
// chosen item's bid chain — plus browse reads over the same hot items
// and an occasional new listing that replaces an old one.
//
// What it stresses, compared with ZipfChurn's flat table: bids build
// *chains* hanging off hot old objects (a hot item's card stays
// permanently dirty and its chain is young-reachable-from-old at every
// partial collection), listings churn the old generation itself (a
// replaced item dies tenured, together with its chain), and the bid mix
// interleaves three object lifetimes (bid records die young, chains die
// in bulk on rollover or replacement, items die old). Popularity skew
// concentrates all three on a few cards.
//
// The profile is deterministic under a fixed Seed; concurrent threads
// must use distinct seeds. Each thread owns a private catalog (the
// collector-visible contention — cards, size-class shards, the young
// generation — is shared through the runtime; application-level object
// sharing between mutators would make runs racy and non-reproducible).
type Auction struct {
	// Items is the catalog size. Default 256.
	Items int

	// Users is the user-table size. Default 128.
	Users int

	// Skew is the Zipf exponent of item popularity. Default 0.9.
	Skew float64

	// MaxBids bounds an item's bid chain: the chain restarts (and the
	// old chain dies in bulk) after MaxBids consecutive bids. Default 8.
	MaxBids int

	// BidFrac and ListFrac set the operation mix: a bid with
	// probability BidFrac (default 0.55), a new listing with
	// probability ListFrac (default 0.05), a browse otherwise.
	BidFrac, ListFrac float64

	// Seed anchors the profile's random stream.
	Seed int64
}

// auction directory fan-out: items are held in Slots-wide directory
// objects rather than mutator roots, so replacing a listing is a
// barriered store into an old object, as it would be in a real index.
const auctionDirFan = 32

// withDefaults fills unset fields.
func (a Auction) withDefaults() Auction {
	if a.Items == 0 {
		a.Items = 256
	}
	if a.Users == 0 {
		a.Users = 128
	}
	if a.Skew == 0 {
		a.Skew = 0.9
	}
	if a.MaxBids == 0 {
		a.MaxBids = 8
	}
	if a.BidFrac == 0 {
		a.BidFrac = 0.55
	}
	if a.ListFrac == 0 {
		a.ListFrac = 0.05
	}
	return a
}

// Validate reports obviously broken parameters.
func (a Auction) Validate() error {
	a = a.withDefaults()
	if a.BidFrac < 0 || a.ListFrac < 0 || a.BidFrac+a.ListFrac > 1 {
		return fmt.Errorf("workload.Auction: bad mix (bid %.2f + list %.2f)", a.BidFrac, a.ListFrac)
	}
	return nil
}

// item slot layout: slot 0 = head of the bid chain, slot 1 = seller.
// bid slot layout: slot 0 = previous bid in the chain, slot 1 = bidder.
const (
	itemSlots = 2
	bidSlots  = 2
)

// RunThread executes ops operations on m: build the rooted user table
// and the directory-held catalog, then per operation bid on, browse, or
// relist a Zipf-chosen item. Roots are left in place; callers detach
// the mutator or pop them.
func (a Auction) RunThread(m *gengc.Mutator, ops int) error {
	a = a.withDefaults()
	if err := a.Validate(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(a.Seed))
	z := NewZipf(rng, a.Skew, a.Items)

	// Long-lived users, rooted directly (they model sessions pinned by
	// the application).
	users := make([]gengc.Ref, a.Users)
	for i := range users {
		u, err := m.Alloc(0, 64)
		if err != nil {
			return err
		}
		m.PushRoot(u)
		users[i] = u
		m.Safepoint()
	}

	// The catalog: directory objects hold the item references, so a
	// relisting is an old-to-young barriered store (and the dead item
	// is unreachable the moment the slot is overwritten).
	nDirs := (a.Items + auctionDirFan - 1) / auctionDirFan
	dirs := make([]gengc.Ref, nDirs)
	for i := range dirs {
		d, err := m.Alloc(auctionDirFan, 0)
		if err != nil {
			return err
		}
		m.PushRoot(d)
		dirs[i] = d
		m.Safepoint()
	}
	newItem := func(rank int) (gengc.Ref, error) {
		it, err := m.Alloc(itemSlots, 96)
		if err != nil {
			return gengc.Nil, err
		}
		m.Write(it, 1, users[rank%a.Users]) // seller
		m.Write(dirs[rank/auctionDirFan], rank%auctionDirFan, it)
		return it, nil
	}
	items := make([]gengc.Ref, a.Items)
	for rank := range items {
		it, err := newItem(rank)
		if err != nil {
			return err
		}
		items[rank] = it
		m.Safepoint()
	}
	chainLen := make([]int, a.Items)

	var sink uint64
	for op := 0; op < ops; op++ {
		rank := z.Next()
		it := items[rank]
		dice := rng.Float64()
		switch {
		case dice < a.BidFrac:
			// Bid: allocate the record, link it onto the item's chain
			// (restarting the chain — killing it in bulk — at MaxBids),
			// and install it as the new head. The head store hits the
			// same hot item card every time for hot ranks.
			b, err := m.Alloc(bidSlots, 48)
			if err != nil {
				return err
			}
			if chainLen[rank] < a.MaxBids {
				m.Write(b, 0, m.Read(it, 0))
				chainLen[rank]++
			} else {
				chainLen[rank] = 1
			}
			m.Write(b, 1, users[rng.Intn(a.Users)])
			m.Write(it, 0, b)
		case dice < a.BidFrac+a.ListFrac:
			// New listing: replace the item in its directory slot; the
			// old item and its entire bid chain become garbage (an
			// old-generation death, once the item has been promoted).
			nit, err := newItem(rank)
			if err != nil {
				return err
			}
			items[rank] = nit
			chainLen[rank] = 0
		default:
			// Browse: walk the bid chain a few hops.
			x := m.Read(it, 0)
			for d := 0; d < 3 && x != gengc.Nil; d++ {
				x = m.Read(x, 0)
			}
			sink += uint64(x)
		}
		m.Safepoint()
	}
	_ = sink
	return nil
}
