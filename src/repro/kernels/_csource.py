"""C source for the compiled NIPS/CI batch engine.

The kernel is a line-for-line port of the Python hot path — the block
filter/credit loop of :meth:`ImplicationCountEstimator.update_batch` and
the :meth:`NIPSBitmap.update_at` / :meth:`ItemsetState.observe` cell
machinery, replayed one row at a time in stream order — operating on flat
arrays instead of dicts.  For the default :class:`SplitMix64Hash` the
block loop also hashes each row and places it (the paper's O(1) Zone-1
path: one hash, one route, one cell position, one comparison); the other
hash families hand in a column their numpy ``hash_array`` produced.
State is imported from the Python dicts at the start of each batch and
exported back at the end; insertion order of the rebuilt dicts is the
kernel's own deterministic table order, which is legal because
``estimator_state_digest`` (and every state comparison in the test suite)
canonicalizes insertion order away by sorting.

One field has no Python counterpart: ``ItemState.recheck_at``, a
confidence certificate.  A top-c scan that passes at support S with mass M
proves every support up to the largest L with ``M / L >= theta`` passes too
(the mass never shrinks), so the fringe path skips the O(K) partner scan
until the support passes L, and a confident itemset's fringe rows cost
amortized O(1).  The multiplicity checks still run on every row.  The field
is derived: it is never imported, exported or digested, and every engine
starts it at 0 (DESIGN.md §11, "Certified confidence").

The source string is hashed (see :mod:`repro.kernels.compiled`) so a cache
entry is keyed to the exact kernel code that produced it.
"""

CSOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---------------------------------------------------------------- */
/* Data structures                                                  */
/* ---------------------------------------------------------------- */

/* Partner table slot: val == 0 means empty (weights are >= 1).      */
typedef struct { uint64_t key; int64_t val; } Slot;

typedef struct {
    int64_t support;
    int64_t recheck_at;        /* confidence certified below this     */
    int32_t pcount, pcap;      /* live partner count / table capacity */
    uint8_t mult_exceeded;     /* sticky multiplicity flag            */
    uint8_t dropped;           /* partners == None                    */
    Slot *partners;
} ItemState;

typedef struct {
    uint64_t *keys;
    ItemState *vals;
    uint8_t *used;
    int32_t cap, count;
} Cell;

typedef struct {
    int64_t fringe_start, rightmost, tuples_seen;
    uint64_t value_one;        /* bit i set => cell i has value 1     */
    Cell *cells[64];
} Bitmap;

typedef struct {
    int64_t m, length, route_bits, fringe_size;  /* fringe_size -1 = None */
    int64_t slack, tau, bound, max_mult, top_c;  /* bound/max_mult -1 = None */
    double theta;
    Bitmap *bitmaps;
    int64_t *starts;                             /* per-block fringe starts */
    int64_t *top_scratch;                        /* top-c selection  */
    /* counters reported back for metric parity with the Python path */
    int64_t c_blocks, c_live, c_floats;
} Engine;

#define GOLD 0x9E3779B97F4A7C15ULL

/* SplitMix64 finalizer: SplitMix64Hash.mix(v) is splitmix64(v + gamma). */
static inline uint64_t splitmix64(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* ---------------------------------------------------------------- */
/* Partner tables                                                   */
/* ---------------------------------------------------------------- */

static int ptable_grow(ItemState *st) {
    int32_t ncap = st->pcap ? st->pcap * 2 : 4;
    Slot *ns = calloc((size_t)ncap, sizeof(Slot));
    if (!ns) return -1;
    for (int32_t i = 0; i < st->pcap; i++) {
        if (st->partners[i].val) {
            uint64_t k = st->partners[i].key;
            int32_t j = (int32_t)((k * GOLD) >> 32) & (ncap - 1);
            while (ns[j].val) j = (j + 1) & (ncap - 1);
            ns[j] = st->partners[i];
        }
    }
    free(st->partners);
    st->partners = ns;
    st->pcap = ncap;
    return 0;
}

/* Find the slot for key, or the empty slot where it would go.       */
static Slot *ptable_probe(ItemState *st, uint64_t key) {
    int32_t j = (int32_t)((key * GOLD) >> 32) & (st->pcap - 1);
    while (st->partners[j].val && st->partners[j].key != key)
        j = (j + 1) & (st->pcap - 1);
    return &st->partners[j];
}

static void state_drop_partners(ItemState *st) {
    free(st->partners);
    st->partners = NULL;
    st->pcap = 0;
    st->pcount = 0;
    st->dropped = 1;
}

/* ---------------------------------------------------------------- */
/* Cells                                                            */
/* ---------------------------------------------------------------- */

static Cell *cell_new(void) {
    Cell *c = calloc(1, sizeof(Cell));
    if (!c) return NULL;
    c->cap = 8;
    c->keys = malloc(8 * sizeof(uint64_t));
    c->vals = malloc(8 * sizeof(ItemState));
    c->used = calloc(8, 1);
    if (!c->keys || !c->vals || !c->used) {
        free(c->keys); free(c->vals); free(c->used); free(c);
        return NULL;
    }
    return c;
}

static void cell_destroy(Cell *c) {
    if (!c) return;
    for (int32_t i = 0; i < c->cap; i++)
        if (c->used[i]) free(c->vals[i].partners);
    free(c->keys); free(c->vals); free(c->used); free(c);
}

static int cell_grow(Cell *c) {
    int32_t ncap = c->cap * 2;
    uint64_t *nk = malloc((size_t)ncap * sizeof(uint64_t));
    ItemState *nv = malloc((size_t)ncap * sizeof(ItemState));
    uint8_t *nu = calloc((size_t)ncap, 1);
    if (!nk || !nv || !nu) { free(nk); free(nv); free(nu); return -1; }
    for (int32_t i = 0; i < c->cap; i++) {
        if (!c->used[i]) continue;
        int32_t j = (int32_t)((c->keys[i] * GOLD) >> 32) & (ncap - 1);
        while (nu[j]) j = (j + 1) & (ncap - 1);
        nk[j] = c->keys[i]; nv[j] = c->vals[i]; nu[j] = 1;
    }
    free(c->keys); free(c->vals); free(c->used);
    c->keys = nk; c->vals = nv; c->used = nu; c->cap = ncap;
    return 0;
}

static ItemState *cell_find(Cell *c, uint64_t key) {
    int32_t j = (int32_t)((key * GOLD) >> 32) & (c->cap - 1);
    while (c->used[j]) {
        if (c->keys[j] == key) return &c->vals[j];
        j = (j + 1) & (c->cap - 1);
    }
    return NULL;
}

static ItemState *cell_insert(Cell *c, uint64_t key) {
    if ((int64_t)(c->count + 1) * 10 >= (int64_t)c->cap * 7 && cell_grow(c))
        return NULL;
    int32_t j = (int32_t)((key * GOLD) >> 32) & (c->cap - 1);
    while (c->used[j]) j = (j + 1) & (c->cap - 1);
    c->keys[j] = key; c->used[j] = 1; c->count++;
    ItemState *st = &c->vals[j];
    st->support = 0; st->recheck_at = 0; st->pcount = 0; st->pcap = 0;
    st->mult_exceeded = 0; st->dropped = 0; st->partners = NULL;
    return st;
}

/* ---------------------------------------------------------------- */
/* Fringe geometry (mirrors NIPSBitmap)                             */
/* ---------------------------------------------------------------- */

static int64_t fringe_end(const Engine *e, const Bitmap *bm) {
    if (e->fringe_size < 0) return e->length - 1;
    int64_t end = bm->fringe_start + e->fringe_size - 1;
    return end < e->length - 1 ? end : e->length - 1;
}

static int64_t cell_capacity(const Engine *e, const Bitmap *bm, int64_t pos) {
    if (e->fringe_size < 0) return -1;           /* unbounded */
    int64_t depth = fringe_end(e, bm) - pos;
    if (depth < 0) depth = 0;
    /* Python's slack << depth is unbounded; saturate where the shift   */
    /* would overflow int64 (no cell count reaches INT64_MAX).          */
    if (e->slack > (INT64_MAX >> depth)) return INT64_MAX;
    return e->slack << depth;
}

static void cell_free_at(Bitmap *bm, int64_t pos) {
    if (bm->cells[pos]) { cell_destroy(bm->cells[pos]); bm->cells[pos] = NULL; }
}

static void advance_past_ones(Bitmap *bm) {
    int64_t s = bm->fringe_start;
    while (s < 64 && ((bm->value_one >> s) & 1)) {
        bm->value_one &= ~(1ULL << s);
        s++;
    }
    bm->fringe_start = s;
}

static void assign_one(Bitmap *bm, int64_t pos) {
    cell_free_at(bm, pos);
    bm->value_one |= 1ULL << pos;
    if (pos == bm->fringe_start) advance_past_ones(bm);
}

static void float_to(Engine *e, Bitmap *bm, int64_t new_start) {
    if (new_start < 0) new_start = 0;
    if (new_start <= bm->fringe_start) return;
    e->c_floats++;
    for (int64_t p = bm->fringe_start; p < new_start; p++) {
        cell_free_at(bm, p);
        bm->value_one &= ~(1ULL << p);
    }
    bm->fringe_start = new_start;
    advance_past_ones(bm);
}

/* ---------------------------------------------------------------- */
/* Cell machinery: ItemsetState.evaluate and NIPSBitmap.update_at    */
/* ---------------------------------------------------------------- */

/* Confidence certificate: the largest support L at which top-c mass  */
/* M still passes, (double)M / L >= theta.  The mass never shrinks     */
/* (counts only grow, a new partner starts at 1, and a dropped table   */
/* means the multiplicity violation has already latched), and a        */
/* correctly rounded division is monotone in both operands, so every   */
/* support up to L passes without a scan.  The guess M / theta is      */
/* capped at 2S + 2^20, so it converts to int64 in range (theta may be */
/* tiny), then walked onto the scan's own test; the walk takes a step  */
/* or two, and a horizon shorter than L would still be safe.           */
static int64_t confidence_horizon(int64_t mass, int64_t support, double theta) {
    int64_t cap = 2 * support + ((int64_t)1 << 20);
    double guess = (double)mass / theta;
    int64_t horizon = guess < (double)cap ? (int64_t)guess : cap;
    while (horizon > support && (double)mass / (double)horizon < theta)
        horizon--;
    while (horizon < cap && (double)mass / (double)(horizon + 1) >= theta)
        horizon++;
    return horizon;
}

/* Whether a state at minimum support violates the conditions.  The    */
/* multiplicity checks run on every row; the top-c scan only once the  */
/* support reaches the state's certificate, and a scan that passes     */
/* renews it.  recheck_at is derived, never exported: every engine     */
/* starts it at 0, so the first check after an import always scans.    */
static int state_violated(Engine *e, ItemState *st) {
    if (st->mult_exceeded
        || (e->max_mult >= 0 && !st->dropped && st->pcount > e->max_mult))
        return 1;
    if (e->theta <= 0.0 || st->support < st->recheck_at) return 0;
    int64_t mass = 0;
    if (!st->dropped && st->pcount > 0) {
        if (st->pcount <= e->top_c) {
            for (int32_t i = 0; i < st->pcap; i++)
                mass += st->partners[i].val ? st->partners[i].val : 0;
        } else if (e->top_c == 1) {
            for (int32_t i = 0; i < st->pcap; i++)
                if (st->partners[i].val > mass) mass = st->partners[i].val;
        } else {
            /* sum of the top_c largest partner counts */
            int64_t *top = e->top_scratch;
            int64_t filled = 0;
            for (int32_t i = 0; i < st->pcap; i++) {
                int64_t v = st->partners[i].val;
                if (!v) continue;
                if (filled < e->top_c) {
                    int64_t j = filled++;
                    while (j > 0 && top[j - 1] < v) {
                        top[j] = top[j - 1]; j--;
                    }
                    top[j] = v;
                } else if (v > top[e->top_c - 1]) {
                    int64_t j = e->top_c - 1;
                    while (j > 0 && top[j - 1] < v) {
                        top[j] = top[j - 1]; j--;
                    }
                    top[j] = v;
                }
            }
            for (int64_t j = 0; j < filled; j++) mass += top[j];
        }
    }
    if ((double)mass / (double)st->support < e->theta) return 1;
    st->recheck_at = confidence_horizon(mass, st->support, e->theta) + 1;
    return 0;
}

/* One tuple whose itemset hashes to (b, pos).  Returns -1 on OOM.   */
static int update_at_c(Engine *e, int64_t b, int64_t pos,
                       uint64_t lkey, uint64_t rkey) {
    Bitmap *bm = &e->bitmaps[b];
    bm->tuples_seen += 1;
    if (pos > bm->rightmost) {
        bm->rightmost = pos;
        if (e->fringe_size >= 0 && pos > fringe_end(e, bm))
            float_to(e, bm, pos - e->fringe_size + 1);
    }
    if (pos < bm->fringe_start || ((bm->value_one >> pos) & 1)) return 0;
    Cell *cell = bm->cells[pos];
    if (!cell) {
        cell = bm->cells[pos] = cell_new();
        if (!cell) return -1;
    }
    ItemState *st = cell_find(cell, lkey);
    if (!st) {
        int64_t capacity = cell_capacity(e, bm, pos);
        if (capacity >= 0 && cell->count >= capacity) {
            assign_one(bm, pos);                 /* overflow */
            return 0;
        }
        st = cell_insert(cell, lkey);
        if (!st) return -1;
    }
    st->support += 1;
    if (!st->dropped) {
        if (!st->pcap && ptable_grow(st)) return -1;
        Slot *sl = ptable_probe(st, rkey);
        if (sl->val) {
            sl->val += 1;
        } else if (e->bound >= 0 && st->pcount >= e->bound) {
            st->mult_exceeded = 1;
            state_drop_partners(st);
        } else {
            sl->key = rkey; sl->val = 1; st->pcount++;
            if ((int64_t)st->pcount * 10 >= (int64_t)st->pcap * 7
                && ptable_grow(st))
                return -1;
        }
    }
    if (st->support >= e->tau && state_violated(e, st)) assign_one(bm, pos);
    return 0;
}

/* ---------------------------------------------------------------- */
/* Engine lifecycle                                                 */
/* ---------------------------------------------------------------- */

Engine *repro_engine_new(int64_t m, int64_t length, int64_t route_bits,
                         int64_t fringe_size, int64_t slack, int64_t tau,
                         int64_t bound, int64_t max_mult, int64_t top_c,
                         double theta) {
    if (m < 1 || length < 1 || length > 64 || m * length > (1 << 20)
        || slack < 1 || slack > (1 << 20) || top_c < 1 || top_c > (1 << 16))
        return NULL;
    Engine *e = calloc(1, sizeof(Engine));
    if (!e) return NULL;
    e->m = m; e->length = length; e->route_bits = route_bits;
    e->fringe_size = fringe_size; e->slack = slack; e->tau = tau;
    e->bound = bound; e->max_mult = max_mult; e->top_c = top_c;
    e->theta = theta;
    e->bitmaps = calloc((size_t)m, sizeof(Bitmap));
    e->starts = malloc((size_t)m * sizeof(int64_t));
    e->top_scratch = malloc((size_t)top_c * sizeof(int64_t));
    if (!e->bitmaps || !e->starts || !e->top_scratch) {
        free(e->bitmaps); free(e->starts); free(e->top_scratch); free(e);
        return NULL;
    }
    for (int64_t b = 0; b < m; b++) e->bitmaps[b].rightmost = -1;
    return e;
}

void repro_engine_free(Engine *e) {
    if (!e) return;
    for (int64_t b = 0; b < e->m; b++)
        for (int64_t p = 0; p < e->length; p++)
            cell_free_at(&e->bitmaps[b], p);
    free(e->bitmaps); free(e->starts); free(e->top_scratch); free(e);
}

/* ---------------------------------------------------------------- */
/* State import                                                     */
/* ---------------------------------------------------------------- */

int repro_engine_load_bitmaps(Engine *e, const int64_t *fs, const int64_t *rm,
                              const int64_t *ts, const uint64_t *vo) {
    for (int64_t b = 0; b < e->m; b++) {
        e->bitmaps[b].fringe_start = fs[b];
        e->bitmaps[b].rightmost = rm[b];
        e->bitmaps[b].tuples_seen = ts[b];
        e->bitmaps[b].value_one = vo[b];
    }
    return 0;
}

int repro_engine_load_items(Engine *e, int64_t n_items,
                            const int32_t *bmp, const int32_t *pos,
                            const uint64_t *key, const int64_t *support,
                            const uint8_t *flags, const int64_t *part_start,
                            const uint64_t *pkey, const int64_t *pweight) {
    for (int64_t i = 0; i < n_items; i++) {
        Bitmap *bm = &e->bitmaps[bmp[i]];
        Cell *cell = bm->cells[pos[i]];
        if (!cell) {
            cell = bm->cells[pos[i]] = cell_new();
            if (!cell) return -1;
        }
        ItemState *st = cell_insert(cell, key[i]);
        if (!st) return -1;
        st->support = support[i];
        st->mult_exceeded = flags[i] & 1;
        if (flags[i] & 2) {
            st->dropped = 1;
        } else {
            for (int64_t j = part_start[i]; j < part_start[i + 1]; j++) {
                if (!st->pcap && ptable_grow(st)) return -1;
                Slot *sl = ptable_probe(st, pkey[j]);
                sl->key = pkey[j]; sl->val = pweight[j]; st->pcount++;
                if ((int64_t)st->pcount * 10 >= (int64_t)st->pcap * 7
                    && ptable_grow(st))
                    return -1;
            }
        }
    }
    return 0;
}

/* ---------------------------------------------------------------- */
/* Batch replay                                                     */
/* ---------------------------------------------------------------- */

/* Blocks grow 64x from 512 rows; each snapshots the fringe starts and  */
/* credits rows left of them as Zone-1, like update_batch.  Every other */
/* row replays through update_at_c in stream order, which re-checks    */
/* the live geometry — so the result is the scalar loop's, bit-for-bit. */
/* (The Python path's per-8192-row re-filter only saves Python calls;   */
/* here update_at_c's own Zone-1 check is just as cheap.)               */
/* hashed == NULL hashes each row here as splitmix64(lhs + gamma).      */
/* The cell is the route's least significant set bit.  ctz compiles    */
/* inline on baseline x86-64 and arm64, where popcount of the isolated  */
/* bit is a libgcc call without -mpopcnt; the guard keeps the scalar    */
/* rule least_significant_bit(0) == 64, and ctz(0) is undefined.        */
int repro_engine_run_batch(Engine *e, int64_t n, const uint64_t *hashed,
                           uint64_t gamma, const uint64_t *lhs,
                           const uint64_t *rhs) {
    uint64_t idx_mask = (uint64_t)(e->m - 1);
    int64_t off = 0, bs = 512;
    while (off < n) {
        int64_t bend = off + bs < n ? off + bs : n;
        e->c_blocks++;
        for (int64_t b = 0; b < e->m; b++)
            e->starts[b] = e->bitmaps[b].fringe_start;
        for (int64_t i = off; i < bend; i++) {
            uint64_t h = hashed ? hashed[i] : splitmix64(lhs[i] + gamma);
            int64_t b = (int64_t)(h & idx_mask);
            uint64_t r = h >> e->route_bits;
            int64_t p = r ? __builtin_ctzll(r) : 64;
            if (p > e->length - 1) p = e->length - 1;
            if (p < e->starts[b]) {
                e->bitmaps[b].tuples_seen += 1;
            } else {
                e->c_live++;
                if (update_at_c(e, b, p, lhs[i], rhs[i])) return -1;
            }
        }
        off = bend;
        bs *= 64;
    }
    return 0;
}

/* ---------------------------------------------------------------- */
/* State export                                                     */
/* ---------------------------------------------------------------- */

void repro_engine_counters(Engine *e, int64_t *out) {
    out[0] = e->c_blocks; out[1] = e->c_live; out[2] = e->c_floats;
}

void repro_engine_export_bitmaps(Engine *e, int64_t *fs, int64_t *rm,
                                 int64_t *ts, uint64_t *vo) {
    for (int64_t b = 0; b < e->m; b++) {
        fs[b] = e->bitmaps[b].fringe_start;
        rm[b] = e->bitmaps[b].rightmost;
        ts[b] = e->bitmaps[b].tuples_seen;
        vo[b] = e->bitmaps[b].value_one;
    }
}

void repro_engine_export_counts(Engine *e, int64_t *n_items,
                                int64_t *n_partners) {
    int64_t items = 0, partners = 0;
    for (int64_t b = 0; b < e->m; b++)
        for (int64_t p = 0; p < e->length; p++) {
            Cell *c = e->bitmaps[b].cells[p];
            if (!c) continue;
            items += c->count;
            for (int32_t i = 0; i < c->cap; i++)
                if (c->used[i] && !c->vals[i].dropped)
                    partners += c->vals[i].pcount;
        }
    *n_items = items;
    *n_partners = partners;
}

void repro_engine_export_items(Engine *e, int32_t *bmp, int32_t *pos,
                               uint64_t *key, int64_t *support,
                               uint8_t *flags, int64_t *part_start,
                               uint64_t *pkey, int64_t *pweight) {
    int64_t it = 0, pt = 0;
    for (int64_t b = 0; b < e->m; b++)
        for (int64_t p = 0; p < e->length; p++) {
            Cell *c = e->bitmaps[b].cells[p];
            if (!c) continue;
            for (int32_t i = 0; i < c->cap; i++) {
                if (!c->used[i]) continue;
                ItemState *st = &c->vals[i];
                bmp[it] = (int32_t)b; pos[it] = (int32_t)p;
                key[it] = c->keys[i];
                support[it] = st->support;
                flags[it] = (uint8_t)((st->mult_exceeded ? 1 : 0)
                                      | (st->dropped ? 2 : 0));
                part_start[it] = pt;
                if (!st->dropped)
                    for (int32_t j = 0; j < st->pcap; j++)
                        if (st->partners[j].val) {
                            pkey[pt] = st->partners[j].key;
                            pweight[pt] = st->partners[j].val;
                            pt++;
                        }
                it++;
            }
        }
    part_start[it] = pt;
}

/* ---------------------------------------------------------------- */
/* PolynomialHash.hash_array kernel                                 */
/* ---------------------------------------------------------------- */

void repro_poly_hash(int64_t n, const uint64_t *in, uint64_t *out,
                     int64_t degree, const uint64_t *coeffs_rev,
                     uint64_t gamma) {
    const uint64_t P = 2305843009213693951ULL;   /* 2**61 - 1 */
    for (int64_t i = 0; i < n; i++) {
        uint64_t x = in[i] % P;
        uint64_t acc = 0;
        for (int64_t d = 0; d < degree; d++) {
            unsigned __int128 t = (unsigned __int128)acc * x + coeffs_rev[d];
            acc = (uint64_t)(t % P);
        }
        out[i] = splitmix64(acc + gamma);
    }
}
"""
