/* Compiled placement, buffer and query kernel for the GSS "native" matrix
 * backend.
 *
 * Rooms are stored in the paper's own matrix layout, bucket-major: room q of
 * bucket (row, col) lives at slot (row * m + col) * l + q of the caller's
 * struct-of-arrays storage (fingerprint pair, index pair, weight), and the
 * per-bucket fill table says which of a bucket's l slots are live.  Rooms
 * fill a bucket in insertion order and never move.  gss_configure() hands
 * the kernel the sketch's parameters and those arrays once, so no later
 * call carries them.
 *
 * One call to gss_ingest_batch() carries a whole batch of packed sketch-edge
 * keys across the Python/C boundary and:
 *
 *   1. aggregates the batch per unique key (first-seen order, stream-order
 *      weight accumulation — bit-identical to the scalar dict path);
 *   2. classifies every unique key against the persistent edge->slot map
 *      (placed / buffered / unseen);
 *   3. places unseen edges: splits hashes, runs the square-hashing LCG
 *      address sequences and the candidate-bucket LCG sampling, probes the
 *      fill table in candidate order and writes the winning room at its
 *      bucket's next free slot;
 *   4. adds the weight of a buffered edge to its buffer entry, and appends
 *      an entry for each edge whose candidates are all full, in first-seen
 *      order.
 *
 * A batch reserves its worst case (scratch, map and buffer growth) before it
 * changes anything, so an allocation failure leaves the sketch untouched.
 * A scalar GSS update on the native backend is a one-row batch, so every
 * insert walks this one probe loop.
 *
 * The left-over buffer B is kernel state: entries in creation order, each
 * chained after the previous entry of its source hash and of its
 * destination hash, and a buffered edge's edge->slot map value names its
 * entry.  Walking the entries of each source in first-seen source order
 * gives the python backend's buffer order (a dict of dicts) exactly.
 *
 * gss_ingest_text_batch() pushes the boundary one stage earlier: it takes
 * the batch's node identifiers as a single NUL-joined UTF-8 blob
 * (interleaved source0, dest0, source1, dest1, ...), resolves each token
 * through the sketch's node table — hashing a node it has never seen with
 * the same seeded FNV-1a / splitmix64 mix as repro.hashing.hash_functions
 * and recording it in first-seen interleaved order, as the scalar backends
 * do — packs the edge keys and then runs the exact pipeline above, so for
 * string node IDs an entire update_many() batch crosses the Python/kernel
 * boundary once.  gss_update_text() does the same for one (source,
 * destination) pair given as two byte strings.
 *
 * That node table is the paper's <H(v), v> table for every string node of
 * a native GSS: gss_node_resolve() looks tokens up, resolves them (hashing
 * the new ones) or records them under supplied hashes (restores, merges,
 * shard messages), with explicit lengths so a NUL inside an ID is fine;
 * gss_node_ids() writes the IDs recorded under a set of hashes, or every ID
 * in first-seen order, into one buffer.  A hash -> entry index chains the
 * entries that share a hash.
 *
 * A query by node ID is one call: gss_edge_query() hashes both IDs and
 * reads the edge's room or buffer entry, and gss_neighbor_query() hashes
 * the node, scans its r rows (columns) with gss_neighbor_scan(), walks its
 * buffer chain and writes the node table's IDs behind every answer hash.
 * gss_neighbor_hashes() answers the same by node hash, with the hashes.
 *
 * gss_route_text_batch() is the sharded deployment's front end, run in the
 * parent over the same blob: against its own persistent node table
 * (gss_router) it hashes each token — H(v) once per distinct node, the
 * routing hash once per distinct source — routes each item to shard
 * route % shards, writes every shard's (H(s), H(d), weight) columns in
 * stream order, and reports per shard the nodes that shard has never been
 * sent (a per-node shard bitmask, so at most 64 shards).  The workers then
 * place their columns with gss_ingest_batch().
 *
 * gss_neighbor_scan() answers the matrix half of a successor (precursor)
 * query the way Section V of the paper does: it walks the node's r rows
 * (columns) bucket by bucket up to each bucket's fill, keeps rooms whose own
 * fingerprint and index match, and recovers the other endpoint's hash from
 * the column (row), its fingerprint and its index (Theorem 1).  The cost is
 * O(r * m * l) slots, whatever the number of stored edges.
 *
 * The edge->slot map, the left-over buffer and the node table are a
 * sketch's persistent kernel state (gss_ctx); a router (gss_router) holds
 * its node table and the per-node routed shard and sent-shards mask.  Room
 * arrays and the per-bucket fill table are owned by Python (NumPy) and
 * written through the configured pointers.
 *
 * Equivalence with the python backend is load-bearing and exact:
 * the FNV/splitmix node hashes, the LCG walks, the probe order, the
 * first-seen contention winners, the buffer order and the IEEE-754
 * accumulation order all match the scalar reference (see
 * repro/core/backends.py module docstring and tests/test_native_backend.py).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Values stored in the edge->slot map: a room's slot (>= 0), SLOT_MISSING
 * for an edge never seen, or BUFFERED(e) for an edge held by buffer entry e
 * (0-based), which BUFFER_ENTRY() recovers. */
#define SLOT_MISSING (-2)
#define BUFFERED(e) (-3 - (int64_t)(e))
#define BUFFER_ENTRY(value) (-3 - (value))

/* Open-addressing key marker.  A packed key can only equal UINT64_MAX when
 * hash_range is exactly 2^32 and both node hashes are maximal; that one key
 * is tracked in a dedicated side slot so the sentinel stays unambiguous. */
#define EMPTY_KEY UINT64_MAX

/* FNV-1a multiplier; the seeded initial state arrives precomputed from
 * Python (FNV offset basis XOR splitmix64(seed)), see hash_functions.py.
 * The node tables' slot hash starts from the bare offset basis. */
#define FNV_PRIME 0x100000001B3ULL
#define FNV_OFFSET 0xCBF29CE484222325ULL

/* Node-table entry: one distinct node identifier, stored densely in
 * first-seen order — entry id - 1 for the node's 1-based ordinal id, which
 * also indexes the owner's per-node side arrays.  The identifier's bytes are
 * arena[off, off + len) and hmod is its sketch hash H(v). */
typedef struct {
    uint64_t hmod;
    uint32_t off;
    uint32_t len;
} node_entry;

/* Persistent bytes->hash table: open-addressing slots (linear probing,
 * pow2) holding entry ids, 0 for empty, placed by the FNV-1a / splitmix64
 * mix of the bytes from the unseeded offset basis — so a token that arrives
 * already hashed finds its entry without its sketch hash being computed.
 * A sketch's table also indexes its entries by hmod: heads (open
 * addressing by mix_key(hmod)) holds the newest entry of each hash, and
 * same[id - 1] the next older entry with that hash (0 ends the chain); a
 * router's table leaves heads NULL.  The arena is capped at 4 GiB (32-bit
 * offsets): a batch that would take it past the cap is refused (-2).
 * has_nul is set once an ID holding a NUL byte is recorded. */
typedef struct {
    uint32_t *slots;
    int64_t cap;
    node_entry *entries;
    int64_t entry_cap;
    int64_t count;
    unsigned char *arena;
    int64_t arena_len;
    int64_t arena_cap;
    uint32_t *heads;
    int64_t head_cap;
    uint32_t *same;
    int has_nul;
} node_table;

/* The ID output buffers of gss_node_ids() and gss_neighbor_query(), owned
 * by the caller: room for ids_cap IDs in bytes_cap bytes.  The call sets
 * count and len — the IDs there are and the bytes they take, each followed
 * by a NUL — and nul, nonzero when an ID of the table may hold a NUL byte
 * (then only lengths can split them), and writes the IDs, each one's byte
 * length and hash when they fit. */
typedef struct {
    unsigned char *bytes;
    int64_t bytes_cap;
    int64_t *lengths;
    uint64_t *hashes;
    int64_t ids_cap;
    int64_t count;
    int64_t len;
    int64_t nul;
} node_ids_out;

/* A sketch's configuration (gss_configure): its hash and placement
 * parameters, the seeded FNV-1a state of its node hash (FNV offset basis
 * XOR splitmix64(seed), see hash_functions.py), and the caller's room
 * arrays, per-bucket fill table and r * m * l scan output — all NULL until
 * the rooms are allocated, and read only once weights is set. */
typedef struct {
    uint64_t hash_range;
    uint64_t fp_range;
    int64_t width;
    int64_t rooms;
    int64_t seq_length;
    int64_t candidates;
    int32_t square_hashing;
    int32_t sampling;
    uint64_t lcg_a;
    uint64_t lcg_b;
    uint64_t lcg_p;
    uint64_t fnv_state0;
    int64_t *src_fp;
    int64_t *dst_fp;
    int64_t *src_idx;
    int64_t *dst_idx;
    double *weights;
    uint8_t *fill;
    uint64_t *scan_out;
} gss_config;

/* One left-over buffer entry: a sketch edge H(s) -> H(d) and its weight,
 * with the 1-based ids of the next entry of the same source and of the same
 * destination (0 ends a chain). */
typedef struct {
    uint64_t src;
    uint64_t dst;
    double weight;
    uint32_t next_out;
    uint32_t next_in;
} buffer_entry;

/* A buffer chain index: open-addressing slots (linear probing, pow2) keyed
 * by a node hash, holding the first and last entry ids of its chain; head 0
 * marks an empty slot, and cap is 0 until the first reservation. */
typedef struct {
    uint64_t hash;
    uint32_t head;
    uint32_t tail;
} chain_slot;

typedef struct {
    chain_slot *slots;
    int64_t cap;
    int64_t count;
} chain_table;

typedef struct {
    gss_config cfg;
    /* persistent edge->slot open-addressing table (linear probing, pow2) */
    uint64_t *keys;
    int64_t *vals;
    int64_t capacity;
    int64_t count;
    int has_max_key;
    int64_t max_key_val;
    /* the left-over buffer: entries in creation order, chained by source
     * (out_chains) and by destination (in_chains) */
    buffer_entry *buf;
    int64_t buf_count;
    int64_t buf_cap;
    chain_table out_chains;
    chain_table in_chains;
    /* persistent node table, indexed by hash; nodes_full is set once a
     * reservation hits the arena cap and refuses every later one, so the
     * caller's overflow store never holds a node the table could take */
    node_table nodes;
    int nodes_full;
    /* per-batch scratch, grown on demand and reused across batches */
    uint64_t *bkeys;   /* batch aggregation table: key -> unique index */
    int64_t *bvals;
    int64_t bcap;
    uint64_t *ukeys;   /* unique keys in first-seen order */
    double *usums;     /* stream-order-accumulated weight per unique key */
    int64_t ucap;
    int64_t *saddr;    /* address-sequence scratch (2 * seq_length) */
    int64_t acap;
    uint64_t *tkeys;   /* text path: packed keys per batch item */
    int64_t tcap;
} gss_ctx;

/* The sharded deployment's front end (gss_route_text_batch): one node
 * table, the shard each node routes to as a source, and which shards have
 * been sent each node.  Per-node arrays are indexed by the entry's id - 1. */
#define ROUTER_MAX_SHARDS 64

typedef struct {
    node_table nodes;
    int64_t shards;
    int8_t *home;      /* routed shard, -1 until the node is seen as a source */
    uint8_t *sent;     /* sent_bytes per node; bit k: shard k has the node */
    int64_t sent_bytes;
    int64_t node_cap;  /* capacity of home / sent, in nodes */
    /* per-batch scratch, grown on demand and reused across batches */
    uint64_t *tok_hash;  /* H(v) per token */
    uint8_t *tok_new;    /* 1 when the token is its node's first to its shard */
    int8_t *item_shard;
    int64_t tok_cap;
} gss_router;

/* Exported ABI.  Every non-static function below must appear here (the
 * build runs with -Wmissing-prototypes under -Werror) and must stay in
 * sync with the ctypes bindings in __init__.py — drift is caught by
 * `python -m repro.devtools.lint` (rule abi-check). */
gss_ctx *gss_new(void);
void gss_free(gss_ctx *ctx);
void gss_configure(gss_ctx *ctx, const gss_config *config);
int64_t gss_map_get(gss_ctx *ctx, uint64_t key);
int gss_map_put(gss_ctx *ctx, uint64_t key, int64_t val);
int64_t gss_ingest_batch(gss_ctx *ctx, const uint64_t *keys, const double *weights, int64_t n);
int64_t gss_ingest_text_batch(
    gss_ctx *ctx,
    const unsigned char *blob, int64_t blob_len,
    const double *weights, int64_t n,
    int64_t *hashed);
int64_t gss_update_text(
    gss_ctx *ctx,
    const unsigned char *source, int64_t source_len,
    const unsigned char *destination, int64_t destination_len,
    double weight, int64_t *hashed);
int64_t gss_edge_weight(gss_ctx *ctx, uint64_t key, double *weight);
int64_t gss_edge_query(
    gss_ctx *ctx,
    const unsigned char *source, int64_t source_len,
    const unsigned char *destination, int64_t destination_len,
    double *weight);
int64_t gss_neighbor_query(
    gss_ctx *ctx, const unsigned char *node, int64_t node_len, int32_t forward,
    node_ids_out *out);
int64_t gss_buffer_add(gss_ctx *ctx, uint64_t source_hash, uint64_t destination_hash,
                       double weight);
int64_t gss_buffer_count(gss_ctx *ctx);
int64_t gss_buffer_neighbors(gss_ctx *ctx, uint64_t node_hash, int32_t forward,
                             uint64_t *out, int64_t cap);
int64_t gss_buffer_edges(gss_ctx *ctx, uint64_t *sources, uint64_t *destinations,
                         double *weights);
int64_t gss_neighbor_hashes(gss_ctx *ctx, uint64_t node_hash, int32_t forward,
                            uint64_t *out, int64_t cap);
gss_router *gss_router_new(int64_t shards);
void gss_router_free(gss_router *router);
int64_t gss_route_text_batch(
    gss_router *router,
    const unsigned char *blob, int64_t blob_len,
    const double *weights, int64_t n,
    uint64_t node_state0, uint64_t route_state0, uint64_t hash_range,
    uint64_t *out_src, uint64_t *out_dst, double *out_weights,
    int64_t *item_counts,
    int64_t *new_tokens, uint64_t *new_hashes, int64_t *new_counts);
int64_t gss_node_count(gss_ctx *ctx);
int64_t gss_node_resolve(
    gss_ctx *ctx, int32_t mode,
    const unsigned char *bytes, int64_t bytes_len,
    const int64_t *lengths, int64_t n,
    uint64_t fnv_state0, uint64_t hash_range,
    uint64_t *hashes, int64_t *ids, int64_t *conflict);
int64_t gss_node_ids(gss_ctx *ctx, const uint64_t *hashes, int64_t n, node_ids_out *out);

/* The matrix scan of a neighbour query, defined last (see there). */
static int64_t gss_neighbor_scan(
    uint64_t node_hash, int32_t forward,
    uint64_t fp_range, int64_t width, int64_t rooms,
    int64_t seq_length, int32_t square_hashing,
    uint64_t lcg_a, uint64_t lcg_b, uint64_t lcg_p,
    const int64_t *src_fp_arr, const int64_t *dst_fp_arr,
    const int64_t *src_idx_arr, const int64_t *dst_idx_arr,
    const uint8_t *fill,
    uint64_t *out);

static uint64_t mix_key(uint64_t value) {
    /* splitmix64 finalizer — identical to hash_functions._splitmix64 */
    value += 0x9E3779B97F4A7C15ULL;
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9ULL;
    value = (value ^ (value >> 27)) * 0x94D049BB133111EBULL;
    return value ^ (value >> 31);
}

/* Exact x mod (2^31 - 1) for x < 2^62, by Mersenne folding (2^31 == 1 mod p).
 * The default LCG modulus is this prime; folding replaces the 64-bit
 * division in every address/candidate step of the placement walk. */
#define MERSENNE31 0x7FFFFFFFULL
static inline uint64_t mod_m31(uint64_t value) {
    value = (value >> 31) + (value & MERSENNE31); /* < 2^32 */
    value = (value >> 31) + (value & MERSENNE31); /* <= 2^31 */
    if (value >= MERSENNE31) value -= MERSENNE31;
    return value;
}

/* Seeded FNV-1a over the token, then the splitmix64 finalizer —
 * hash_functions.hash_string byte for byte. */
static uint64_t hash_token(const unsigned char *token, uint64_t len, uint64_t state) {
    for (uint64_t b = 0; b < len; b++) {
        state ^= token[b];
        state *= FNV_PRIME;
    }
    return mix_key(state);
}

/* A fresh table; by_hash also allocates the hash -> entry index. */
static int node_table_init(node_table *table, int by_hash) {
    memset(table, 0, sizeof(*table));
    table->cap = 1024;
    table->slots = (uint32_t *)calloc((size_t)table->cap, sizeof(uint32_t));
    if (!table->slots) return -1;
    if (by_hash) {
        table->head_cap = 1024;
        table->heads = (uint32_t *)calloc((size_t)table->head_cap, sizeof(uint32_t));
        if (!table->heads) return -1;
    }
    return 0;
}

static void node_table_free(node_table *table) {
    free(table->slots);
    free(table->entries);
    free(table->arena);
    free(table->heads);
    free(table->same);
}

/* The heads slot of hash hmod: the slot holding the id of its newest entry,
 * or the empty slot where that id goes. */
static uint32_t *node_head(uint32_t *heads, int64_t head_cap,
                           const node_entry *entries, uint64_t hmod) {
    uint64_t mask = (uint64_t)head_cap - 1;
    uint64_t pos = mix_key(hmod) & mask;
    while (heads[pos] && entries[heads[pos] - 1].hmod != hmod) pos = (pos + 1) & mask;
    return &heads[pos];
}

/* Grow the table so `tokens` more nodes fit under 70% load and the arena so
 * `bytes` more identifier bytes fit.  A batch reserves its worst case up
 * front, so node_add never allocates and a failed batch leaves the table
 * untouched.  Returns 0, -1 on allocation failure, or -2 when the arena
 * would pass its 4 GiB cap. */
static int node_reserve(node_table *table, int64_t tokens, int64_t bytes) {
    if (table->arena_len + bytes > (int64_t)UINT32_MAX) return -2;
    int64_t cap = table->cap;
    while ((table->count + tokens) * 10 >= cap * 7) cap *= 2;
    if (cap != table->cap) {
        uint32_t *slots = (uint32_t *)calloc((size_t)cap, sizeof(uint32_t));
        if (!slots) return -1;
        uint64_t mask = (uint64_t)cap - 1;
        for (int64_t i = 0; i < table->count; i++) {
            const node_entry *entry = &table->entries[i];
            uint64_t pos = hash_token(table->arena + entry->off, entry->len, FNV_OFFSET) & mask;
            while (slots[pos]) pos = (pos + 1) & mask;
            slots[pos] = (uint32_t)(i + 1);
        }
        free(table->slots);
        table->slots = slots;
        table->cap = cap;
    }
    if (table->heads) {
        /* at most one head per entry, so the entry count bounds the load */
        int64_t head_cap = table->head_cap;
        while ((table->count + tokens) * 10 >= head_cap * 7) head_cap *= 2;
        if (head_cap != table->head_cap) {
            uint32_t *heads = (uint32_t *)calloc((size_t)head_cap, sizeof(uint32_t));
            if (!heads) return -1;
            for (int64_t i = 0; i < table->head_cap; i++) {
                uint32_t id = table->heads[i];
                if (id) *node_head(heads, head_cap, table->entries, table->entries[id - 1].hmod) = id;
            }
            free(table->heads);
            table->heads = heads;
            table->head_cap = head_cap;
        }
    }
    if (table->count + tokens > table->entry_cap) {
        int64_t entry_cap = table->entry_cap ? table->entry_cap : 1024;
        while (entry_cap < table->count + tokens) entry_cap *= 2;
        node_entry *entries =
            (node_entry *)realloc(table->entries, (size_t)entry_cap * sizeof(node_entry));
        if (!entries) return -1;
        table->entries = entries;
        if (table->heads) {
            uint32_t *same = (uint32_t *)realloc(table->same, (size_t)entry_cap * sizeof(uint32_t));
            if (!same) return -1;
            table->same = same;
        }
        table->entry_cap = entry_cap;
    }
    if (table->arena_len + bytes > table->arena_cap) {
        int64_t arena_cap = table->arena_cap ? table->arena_cap : 65536;
        while (arena_cap < table->arena_len + bytes) arena_cap *= 2;
        unsigned char *arena = (unsigned char *)realloc(table->arena, (size_t)arena_cap);
        if (!arena) return -1;
        table->arena = arena;
        table->arena_cap = arena_cap;
    }
    return 0;
}

/* The slot of the token: it holds the token's entry id, or 0 when the node
 * is new — then node_add records it there. */
static uint32_t *node_slot(node_table *table, const unsigned char *token, uint32_t len) {
    uint64_t mask = (uint64_t)table->cap - 1;
    for (uint64_t pos = hash_token(token, len, FNV_OFFSET) & mask;; pos = (pos + 1) & mask) {
        uint32_t id = table->slots[pos];
        if (!id) return &table->slots[pos];
        const node_entry *entry = &table->entries[id - 1];
        if (entry->len == len && (!len || memcmp(table->arena + entry->off, token, len) == 0))
            return &table->slots[pos];
    }
}

/* Record a new node at its empty slot under hash hmod (bytes copied into the
 * arena, the entry chained under its hash).  Needs a prior node_reserve
 * covering the addition. */
static node_entry *node_add(node_table *table, uint32_t *slot,
                            const unsigned char *token, uint32_t len, uint64_t hmod) {
    node_entry *entry = &table->entries[table->count];
    if (len) memcpy(table->arena + table->arena_len, token, len);
    entry->off = (uint32_t)table->arena_len;
    entry->len = len;
    entry->hmod = hmod;
    uint32_t id = (uint32_t)(++table->count);
    *slot = id;
    table->arena_len += len;
    if (len && memchr(token, 0, len)) table->has_nul = 1;
    if (table->heads) {
        uint32_t *head = node_head(table->heads, table->head_cap, table->entries, hmod);
        table->same[id - 1] = *head;
        *head = id;
    }
    return entry;
}

/* Number of NUL separators in the blob: a batch of k tokens has k - 1. */
static int64_t count_separators(const unsigned char *blob, int64_t blob_len) {
    int64_t seps = 0;
    const unsigned char *p = blob;
    const unsigned char *end = blob + blob_len;
    while (p < end && (p = memchr(p, 0, (size_t)(end - p))) != NULL) {
        seps++;
        p++;
    }
    return seps;
}

gss_ctx *gss_new(void) {
    gss_ctx *ctx = (gss_ctx *)calloc(1, sizeof(gss_ctx));
    if (!ctx) return NULL;
    ctx->capacity = 1024;
    ctx->keys = (uint64_t *)malloc((size_t)ctx->capacity * sizeof(uint64_t));
    ctx->vals = (int64_t *)malloc((size_t)ctx->capacity * sizeof(int64_t));
    if (!ctx->keys || !ctx->vals || node_table_init(&ctx->nodes, 1) != 0) {
        free(ctx->keys);
        free(ctx->vals);
        node_table_free(&ctx->nodes);
        free(ctx);
        return NULL;
    }
    memset(ctx->keys, 0xFF, (size_t)ctx->capacity * sizeof(uint64_t));
    ctx->max_key_val = SLOT_MISSING;
    return ctx;
}

void gss_free(gss_ctx *ctx) {
    if (!ctx) return;
    free(ctx->keys);
    free(ctx->vals);
    free(ctx->buf);
    free(ctx->out_chains.slots);
    free(ctx->in_chains.slots);
    node_table_free(&ctx->nodes);
    free(ctx->bkeys);
    free(ctx->bvals);
    free(ctx->ukeys);
    free(ctx->usums);
    free(ctx->saddr);
    free(ctx->tkeys);
    free(ctx);
}

/* Set the sketch's configuration (a copy is kept); called once the context
 * exists and again once the room arrays are allocated. */
void gss_configure(gss_ctx *ctx, const gss_config *config) {
    ctx->cfg = *config;
}

static int map_grow(gss_ctx *ctx) {
    int64_t old_capacity = ctx->capacity;
    uint64_t *old_keys = ctx->keys;
    int64_t *old_vals = ctx->vals;
    int64_t capacity = old_capacity * 2;
    uint64_t *keys = (uint64_t *)malloc((size_t)capacity * sizeof(uint64_t));
    int64_t *vals = (int64_t *)malloc((size_t)capacity * sizeof(int64_t));
    if (!keys || !vals) {
        free(keys);
        free(vals);
        return -1;
    }
    memset(keys, 0xFF, (size_t)capacity * sizeof(uint64_t));
    uint64_t mask = (uint64_t)capacity - 1;
    for (int64_t i = 0; i < old_capacity; i++) {
        if (old_keys[i] == EMPTY_KEY) continue;
        uint64_t pos = mix_key(old_keys[i]) & mask;
        while (keys[pos] != EMPTY_KEY) pos = (pos + 1) & mask;
        keys[pos] = old_keys[i];
        vals[pos] = old_vals[i];
    }
    free(old_keys);
    free(old_vals);
    ctx->keys = keys;
    ctx->vals = vals;
    ctx->capacity = capacity;
    return 0;
}

/* Grow the map so `extra` more keys fit under 70% load, so probe chains
 * stay short and map_insert never allocates. */
static int map_reserve(gss_ctx *ctx, int64_t extra) {
    while ((ctx->count + extra) * 10 >= ctx->capacity * 7) {
        if (map_grow(ctx) != 0) return -1;
    }
    return 0;
}

int64_t gss_map_get(gss_ctx *ctx, uint64_t key) {
    if (key == EMPTY_KEY)
        return ctx->has_max_key ? ctx->max_key_val : SLOT_MISSING;
    uint64_t mask = (uint64_t)ctx->capacity - 1;
    uint64_t pos = mix_key(key) & mask;
    while (ctx->keys[pos] != EMPTY_KEY) {
        if (ctx->keys[pos] == key) return ctx->vals[pos];
        pos = (pos + 1) & mask;
    }
    return SLOT_MISSING;
}

/* Set key's value; needs a prior map_reserve covering a new key. */
static void map_insert(gss_ctx *ctx, uint64_t key, int64_t val) {
    if (key == EMPTY_KEY) {
        if (!ctx->has_max_key) {
            ctx->has_max_key = 1;
            ctx->count++;
        }
        ctx->max_key_val = val;
        return;
    }
    uint64_t mask = (uint64_t)ctx->capacity - 1;
    uint64_t pos = mix_key(key) & mask;
    while (ctx->keys[pos] != EMPTY_KEY) {
        if (ctx->keys[pos] == key) {
            ctx->vals[pos] = val;
            return;
        }
        pos = (pos + 1) & mask;
    }
    ctx->keys[pos] = key;
    ctx->vals[pos] = val;
    ctx->count++;
}

int gss_map_put(gss_ctx *ctx, uint64_t key, int64_t val) {
    if (map_reserve(ctx, 1) != 0) return -1;
    map_insert(ctx, key, val);
    return 0;
}

/* The chain slot of hash: the slot holding its chain, or the empty slot
 * where that chain goes; NULL while the index has no slots. */
static chain_slot *chain_find(const chain_table *table, uint64_t hash) {
    if (!table->cap) return NULL;
    uint64_t mask = (uint64_t)table->cap - 1;
    uint64_t pos = mix_key(hash) & mask;
    while (table->slots[pos].head && table->slots[pos].hash != hash) pos = (pos + 1) & mask;
    return &table->slots[pos];
}

/* Grow the index so `extra` more chains fit under 70% load. */
static int chain_reserve(chain_table *table, int64_t extra) {
    int64_t cap = table->cap ? table->cap : 1024;
    while ((table->count + extra) * 10 >= cap * 7) cap *= 2;
    if (cap == table->cap) return 0;
    chain_slot *slots = (chain_slot *)calloc((size_t)cap, sizeof(chain_slot));
    if (!slots) return -1;
    chain_table grown = {slots, cap, table->count};
    for (int64_t i = 0; i < table->cap; i++) {
        if (table->slots[i].head) *chain_find(&grown, table->slots[i].hash) = table->slots[i];
    }
    free(table->slots);
    *table = grown;
    return 0;
}

/* Grow the buffer so `extra` more entries fit; 1-based uint32 entry ids cap
 * it below 2^32 entries. */
static int buffer_reserve(gss_ctx *ctx, int64_t extra) {
    int64_t want = ctx->buf_count + extra;
    if (want >= (int64_t)UINT32_MAX) return -1;
    if (want > ctx->buf_cap) {
        int64_t cap = ctx->buf_cap ? ctx->buf_cap : 1024;
        while (cap < want) cap *= 2;
        buffer_entry *buf = (buffer_entry *)realloc(ctx->buf, (size_t)cap * sizeof(buffer_entry));
        if (!buf) return -1;
        ctx->buf = buf;
        ctx->buf_cap = cap;
    }
    if (chain_reserve(&ctx->out_chains, extra) != 0) return -1;
    return chain_reserve(&ctx->in_chains, extra);
}

/* Append a buffer entry (needs a prior buffer_reserve) and return its
 * 0-based index. */
static int64_t buffer_append(gss_ctx *ctx, uint64_t src, uint64_t dst, double weight) {
    int64_t e = ctx->buf_count++;
    uint32_t id = (uint32_t)(e + 1);
    buffer_entry *entry = &ctx->buf[e];
    entry->src = src;
    entry->dst = dst;
    entry->weight = weight;
    entry->next_out = 0;
    entry->next_in = 0;
    chain_slot *out = chain_find(&ctx->out_chains, src);
    if (out->head) {
        ctx->buf[out->tail - 1].next_out = id;
    } else {
        out->hash = src;
        out->head = id;
        ctx->out_chains.count++;
    }
    out->tail = id;
    chain_slot *in = chain_find(&ctx->in_chains, dst);
    if (in->head) {
        ctx->buf[in->tail - 1].next_in = id;
    } else {
        in->hash = dst;
        in->head = id;
        ctx->in_chains.count++;
    }
    in->tail = id;
    return e;
}

/* The first entry id of node_hash's chain — its buffered out-edges
 * (forward) or in-edges — or 0. */
static uint32_t chain_head(const gss_ctx *ctx, uint64_t node_hash, int32_t forward) {
    const chain_slot *slot = chain_find(forward ? &ctx->out_chains : &ctx->in_chains, node_hash);
    return slot ? slot->head : 0;
}

static int ensure_scratch(gss_ctx *ctx, int64_t n, int64_t seq_length) {
    /* batch table capacity: pow2 >= 2n (max 50% load) */
    int64_t want = 16;
    while (want < 2 * n) want *= 2;
    if (want > ctx->bcap) {
        free(ctx->bkeys);
        free(ctx->bvals);
        ctx->bkeys = (uint64_t *)malloc((size_t)want * sizeof(uint64_t));
        ctx->bvals = (int64_t *)malloc((size_t)want * sizeof(int64_t));
        if (!ctx->bkeys || !ctx->bvals) {
            ctx->bcap = 0;
            return -1;
        }
        ctx->bcap = want;
    }
    if (n > ctx->ucap) {
        free(ctx->ukeys);
        free(ctx->usums);
        ctx->ukeys = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
        ctx->usums = (double *)malloc((size_t)n * sizeof(double));
        if (!ctx->ukeys || !ctx->usums) {
            ctx->ucap = 0;
            return -1;
        }
        ctx->ucap = n;
    }
    if (2 * seq_length > ctx->acap) {
        free(ctx->saddr);
        ctx->saddr = (int64_t *)malloc((size_t)(2 * seq_length) * sizeof(int64_t));
        if (!ctx->saddr) {
            ctx->acap = 0;
            return -1;
        }
        ctx->acap = 2 * seq_length;
    }
    return 0;
}

/* Everything a batch of n keys can allocate: scratch, and map and buffer
 * room for n new edges. */
static int ingest_reserve(gss_ctx *ctx, int64_t n) {
    if (ensure_scratch(ctx, n, ctx->cfg.seq_length) != 0) return -1;
    if (map_reserve(ctx, n) != 0) return -1;
    return buffer_reserve(ctx, n);
}

/* Shared placement pipeline for a batch whose scratch is reserved; returns
 * the number of rooms placed, or -1 when the map or buffer cannot grow for
 * the batch's unique keys (before anything changes). */
static int64_t ingest_core(gss_ctx *ctx, const uint64_t *keys, const double *weights, int64_t n)
{
    const gss_config *cfg = &ctx->cfg;
    uint64_t hash_range = cfg->hash_range;
    uint64_t fp_range = cfg->fp_range;
    int64_t width = cfg->width;
    int64_t rooms = cfg->rooms;
    int64_t seq_length = cfg->seq_length;
    int32_t square_hashing = cfg->square_hashing;
    int32_t sampling = cfg->sampling;
    uint64_t lcg_a = cfg->lcg_a;
    uint64_t lcg_b = cfg->lcg_b;
    uint64_t lcg_p = cfg->lcg_p;
    int64_t *src_fp_arr = cfg->src_fp;
    int64_t *dst_fp_arr = cfg->dst_fp;
    int64_t *src_idx_arr = cfg->src_idx;
    int64_t *dst_idx_arr = cfg->dst_idx;
    double *room_weights = cfg->weights;
    uint8_t *fill = cfg->fill;

    /* Pass 1 — aggregate per unique key.  Uniques are numbered in first-seen
     * order; each unique's weight accumulates in stream order, exactly like
     * the scalar dict and np.bincount paths (same IEEE addition order). */
    int64_t nunique = 0;
    if (n == 1) {
        ctx->ukeys[0] = keys[0];
        ctx->usums[0] = 0.0 + weights[0];
        nunique = 1;
    } else {
        uint64_t bmask = (uint64_t)ctx->bcap - 1;
        memset(ctx->bkeys, 0xFF, (size_t)ctx->bcap * sizeof(uint64_t));
        int64_t max_key_unique = -1; /* batch-table side slot for key==EMPTY_KEY */
        for (int64_t i = 0; i < n; i++) {
            uint64_t key = keys[i];
            int64_t u;
            if (key == EMPTY_KEY) {
                if (max_key_unique < 0) {
                    max_key_unique = nunique;
                    ctx->ukeys[nunique] = key;
                    ctx->usums[nunique] = 0.0;
                    nunique++;
                }
                u = max_key_unique;
            } else {
                uint64_t pos = mix_key(key) & bmask;
                while (ctx->bkeys[pos] != EMPTY_KEY && ctx->bkeys[pos] != key)
                    pos = (pos + 1) & bmask;
                if (ctx->bkeys[pos] == EMPTY_KEY) {
                    ctx->bkeys[pos] = key;
                    ctx->bvals[pos] = nunique;
                    ctx->ukeys[nunique] = key;
                    ctx->usums[nunique] = 0.0;
                    nunique++;
                }
                u = ctx->bvals[pos];
            }
            ctx->usums[u] += weights[i];
        }
    }
    if (map_reserve(ctx, nunique) != 0 || buffer_reserve(ctx, nunique) != 0) return -1;

    /* Pass 2 — classify and place, in first-seen order (the only order that
     * is observable: it decides same-batch bucket contention and buffer
     * entry creation, matching the scalar backend's single pass). */
    int64_t *saddr = ctx->saddr;
    int64_t *daddr = ctx->saddr + seq_length;
    int64_t span = seq_length * seq_length;
    int fast31 = (lcg_p == MERSENNE31);
    int64_t placed = 0;
    for (int64_t u = 0; u < nunique; u++) {
        uint64_t key = ctx->ukeys[u];
        double sum = ctx->usums[u];
        int64_t slot = gss_map_get(ctx, key);
        if (slot >= 0) {
            room_weights[slot] += sum;
            continue;
        }
        if (slot != SLOT_MISSING) {
            ctx->buf[BUFFER_ENTRY(slot)].weight += sum;
            continue;
        }
        /* unseen: split the packed key and derive the probe sequence */
        uint64_t source_hash = key / hash_range;
        uint64_t destination_hash = key % hash_range;
        int64_t source_base = (int64_t)(source_hash / fp_range);
        int64_t source_fp = (int64_t)(source_hash % fp_range);
        int64_t destination_base = (int64_t)(destination_hash / fp_range);
        int64_t destination_fp = (int64_t)(destination_hash % fp_range);
        int64_t probes = cfg->candidates;
        if (square_hashing) {
            uint64_t cur;
            if (fast31) {
                cur = mod_m31((uint64_t)source_fp);
                for (int64_t i = 0; i < seq_length; i++) {
                    cur = mod_m31(lcg_a * cur + lcg_b);
                    saddr[i] = (int64_t)(((uint64_t)source_base + cur) % (uint64_t)width);
                }
                cur = mod_m31((uint64_t)destination_fp);
                for (int64_t i = 0; i < seq_length; i++) {
                    cur = mod_m31(lcg_a * cur + lcg_b);
                    daddr[i] = (int64_t)(((uint64_t)destination_base + cur) % (uint64_t)width);
                }
            } else {
                cur = (uint64_t)source_fp % lcg_p;
                for (int64_t i = 0; i < seq_length; i++) {
                    cur = (lcg_a * cur + lcg_b) % lcg_p;
                    saddr[i] = (int64_t)(((uint64_t)source_base + cur) % (uint64_t)width);
                }
                cur = (uint64_t)destination_fp % lcg_p;
                for (int64_t i = 0; i < seq_length; i++) {
                    cur = (lcg_a * cur + lcg_b) % lcg_p;
                    daddr[i] = (int64_t)(((uint64_t)destination_base + cur) % (uint64_t)width);
                }
            }
            if (!sampling) probes = span;
        } else {
            saddr[0] = source_base % width;
            daddr[0] = destination_base % width;
            probes = 1;
        }
        int64_t before = placed;
        uint64_t cur = fast31
            ? mod_m31((uint64_t)(source_fp + destination_fp))
            : ((uint64_t)(source_fp + destination_fp)) % lcg_p;
        for (int64_t probe = 0; probe < probes; probe++) {
            int64_t i, j;
            if (!square_hashing) {
                i = 0;
                j = 0;
            } else if (!sampling) {
                i = probe / seq_length;
                j = probe % seq_length;
            } else {
                cur = fast31 ? mod_m31(lcg_a * cur + lcg_b)
                             : (lcg_a * cur + lcg_b) % lcg_p;
                int64_t position = (int64_t)(cur % (uint64_t)span);
                i = position / seq_length;
                j = position % seq_length;
            }
            int64_t row = saddr[i];
            int64_t column = daddr[j];
            int64_t bucket = row * width + column;
            if (fill[bucket] < rooms) {
                int64_t room = bucket * rooms + fill[bucket];
                fill[bucket]++;
                src_fp_arr[room] = source_fp;
                dst_fp_arr[room] = destination_fp;
                src_idx_arr[room] = i + 1;
                dst_idx_arr[room] = j + 1;
                room_weights[room] = sum;
                map_insert(ctx, key, room);
                placed++;
                break;
            }
        }
        if (placed == before)
            map_insert(ctx, key, BUFFERED(buffer_append(ctx, source_hash, destination_hash, 0.0 + sum)));
    }
    return placed;
}

/* Place a batch of packed keys H(s) * M + H(d) with their weights; returns
 * the number of rooms placed, or -1 on allocation failure (nothing
 * changed).  Needs the room arrays configured. */
int64_t gss_ingest_batch(gss_ctx *ctx, const uint64_t *keys, const double *weights, int64_t n)
{
    if (n <= 0) return 0;
    if (ensure_scratch(ctx, n, ctx->cfg.seq_length) != 0) return -1;
    return ingest_core(ctx, keys, weights, n);
}

/* Reserve room in a sketch's node table (node_reserve), refusing (-2) once
 * any reservation has hit the arena cap. */
static int ctx_reserve(gss_ctx *ctx, int64_t tokens, int64_t bytes) {
    if (ctx->nodes_full) return -2;
    int reserved = node_reserve(&ctx->nodes, tokens, bytes);
    if (reserved == -2) ctx->nodes_full = 1;
    return reserved;
}

/* The sketch hash of a token: its recorded hash, or — for a node the table
 * has never seen — its seeded hash, recorded (needs a prior reservation)
 * and counted in *hashed. */
static uint64_t node_resolve_one(gss_ctx *ctx, const unsigned char *token, uint32_t len,
                                 int64_t *hashed) {
    uint32_t *slot = node_slot(&ctx->nodes, token, len);
    if (*slot) return ctx->nodes.entries[*slot - 1].hmod;
    uint64_t hmod = hash_token(token, len, ctx->cfg.fnv_state0) % ctx->cfg.hash_range;
    node_add(&ctx->nodes, slot, token, len, hmod);
    (*hashed)++;
    return hmod;
}

/* Whole-batch text ingestion: blob holds 2n NUL-separated UTF-8 node IDs in
 * interleaved (source, destination) stream order.  Each token resolves to
 * its recorded hash; a new node is hashed and recorded, and *hashed counts
 * them.  Returns the number of rooms placed, -1 on allocation failure, or
 * -2 when the kernel cannot take the batch — the token count does not match
 * 2n (an ID holds a NUL), or the node arena is full.  Both are detected
 * before any state changes, so the caller can fall back to the per-key path
 * with the kernel untouched. */
int64_t gss_ingest_text_batch(
    gss_ctx *ctx,
    const unsigned char *blob, int64_t blob_len,
    const double *weights, int64_t n,
    int64_t *hashed)
{
    *hashed = 0;
    if (n <= 0) return 0;
    if (count_separators(blob, blob_len) != 2 * n - 1) return -2;
    if (n > ctx->tcap) {
        free(ctx->tkeys);
        ctx->tkeys = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
        if (!ctx->tkeys) {
            ctx->tcap = 0;
            return -1;
        }
        ctx->tcap = n;
    }
    int reserved = ctx_reserve(ctx, 2 * n, blob_len);
    if (reserved != 0) return reserved;
    if (ingest_reserve(ctx, n) != 0) return -1;
    uint64_t hash_range = ctx->cfg.hash_range;
    uint64_t prev_hmod = 0;
    int64_t tok_start = 0;
    int64_t t = 0;
    for (int64_t i = 0; i <= blob_len; i++) {
        if (i < blob_len && blob[i] != 0) continue;
        /* token t = blob[tok_start:i) */
        uint64_t hmod = node_resolve_one(ctx, blob + tok_start, (uint32_t)(i - tok_start), hashed);
        if (t & 1)
            ctx->tkeys[t >> 1] = prev_hmod * hash_range + hmod;
        else
            prev_hmod = hmod;
        t++;
        tok_start = i + 1;
    }
    return ingest_core(ctx, ctx->tkeys, weights, n);
}

/* One stream item by string IDs: resolve source then destination through
 * the node table (hashing and recording a new one, counted in *hashed) and
 * place the edge as a one-row batch.  Returns the rooms placed (0 or 1), -1
 * on allocation failure, or -2 when the node arena cannot take the IDs;
 * both leave the sketch unchanged. */
int64_t gss_update_text(
    gss_ctx *ctx,
    const unsigned char *source, int64_t source_len,
    const unsigned char *destination, int64_t destination_len,
    double weight, int64_t *hashed)
{
    *hashed = 0;
    int reserved = ctx_reserve(ctx, 2, source_len + destination_len);
    if (reserved != 0) return reserved;
    if (ingest_reserve(ctx, 1) != 0) return -1;
    uint64_t key = node_resolve_one(ctx, source, (uint32_t)source_len, hashed) * ctx->cfg.hash_range;
    key += node_resolve_one(ctx, destination, (uint32_t)destination_len, hashed);
    return ingest_core(ctx, &key, &weight, 1);
}

/* The weight of packed edge key: 1 with *weight its room's, 2 with
 * *weight its buffer entry's, or 0 when the sketch holds no such edge. */
int64_t gss_edge_weight(gss_ctx *ctx, uint64_t key, double *weight) {
    int64_t slot = gss_map_get(ctx, key);
    if (slot >= 0) {
        *weight = ctx->cfg.weights[slot];
        return 1;
    }
    if (slot == SLOT_MISSING) return 0;
    *weight = ctx->buf[BUFFER_ENTRY(slot)].weight;
    return 2;
}

/* Edge query by string IDs: both hashed with the sketch's seeded hash (not
 * looked up in the node table), then gss_edge_weight(). */
int64_t gss_edge_query(
    gss_ctx *ctx,
    const unsigned char *source, int64_t source_len,
    const unsigned char *destination, int64_t destination_len,
    double *weight)
{
    uint64_t hash_range = ctx->cfg.hash_range;
    uint64_t state = ctx->cfg.fnv_state0;
    uint64_t key = hash_token(source, (uint64_t)source_len, state) % hash_range * hash_range
                   + hash_token(destination, (uint64_t)destination_len, state) % hash_range;
    return gss_edge_weight(ctx, key, weight);
}

/* Append the IDs recorded under hash to out, as far as they fit, counting
 * them all (node_ids_out). */
static void ids_append(const node_table *table, uint64_t hash, node_ids_out *out) {
    uint32_t id = *node_head(table->heads, table->head_cap, table->entries, hash);
    for (; id; id = table->same[id - 1]) {
        const node_entry *entry = &table->entries[id - 1];
        int64_t at = out->len;
        out->len += entry->len + 1;
        if (out->count < out->ids_cap && out->len <= out->bytes_cap) {
            if (entry->len) memcpy(out->bytes + at, table->arena + entry->off, entry->len);
            out->bytes[at + entry->len] = 0;
            out->lengths[out->count] = entry->len;
            out->hashes[out->count] = entry->hmod;
        }
        out->count++;
    }
}

/* What an ID-writing call returns: the bytes written, or -1 when they did
 * not fit (out->count and out->len then say what would). */
static int64_t ids_written(const node_ids_out *out) {
    return out->count > out->ids_cap || out->len > out->bytes_cap ? -1 : out->len;
}

/* gss_neighbor_scan() of node_hash over the configured rooms into the
 * configured scan output (nothing before the rooms exist); returns the
 * count. */
static int64_t scan_rooms(const gss_ctx *ctx, uint64_t node_hash, int32_t forward) {
    const gss_config *cfg = &ctx->cfg;
    if (!cfg->weights) return 0;
    return gss_neighbor_scan(
        node_hash, forward, cfg->fp_range, cfg->width, cfg->rooms,
        cfg->seq_length, cfg->square_hashing, cfg->lcg_a, cfg->lcg_b, cfg->lcg_p,
        cfg->src_fp, cfg->dst_fp, cfg->src_idx, cfg->dst_idx, cfg->fill,
        cfg->scan_out);
}

/* Successor (forward) or precursor query by string ID: hash the node with
 * the sketch's seeded hash, scan its r rows (columns) — gss_neighbor_scan
 * into the configured scan output — and walk its buffer chain, and write
 * the IDs the node table records under each answer hash into out
 * (node_ids_out; a hash found twice repeats its IDs).  Returns
 * ids_written(). */
int64_t gss_neighbor_query(
    gss_ctx *ctx, const unsigned char *node, int64_t node_len, int32_t forward,
    node_ids_out *out)
{
    const gss_config *cfg = &ctx->cfg;
    uint64_t node_hash = hash_token(node, (uint64_t)node_len, cfg->fnv_state0) % cfg->hash_range;
    out->count = 0;
    out->len = 0;
    out->nul = ctx->nodes.has_nul;
    int64_t found = scan_rooms(ctx, node_hash, forward);
    for (int64_t k = 0; k < found; k++) ids_append(&ctx->nodes, cfg->scan_out[k], out);
    for (uint32_t id = chain_head(ctx, node_hash, forward); id;) {
        const buffer_entry *entry = &ctx->buf[id - 1];
        ids_append(&ctx->nodes, forward ? entry->dst : entry->src, out);
        id = forward ? entry->next_out : entry->next_in;
    }
    return ids_written(out);
}

/* Add weight to buffered edge H(s) -> H(d), creating its entry (at 0.0 +
 * weight) when absent — the restore path.  Returns 0, -1 on allocation
 * failure, or -3 when the edge is stored in a matrix room. */
int64_t gss_buffer_add(gss_ctx *ctx, uint64_t source_hash, uint64_t destination_hash,
                       double weight) {
    uint64_t key = source_hash * ctx->cfg.hash_range + destination_hash;
    int64_t slot = gss_map_get(ctx, key);
    if (slot >= 0) return -3;
    if (slot != SLOT_MISSING) {
        ctx->buf[BUFFER_ENTRY(slot)].weight += weight;
        return 0;
    }
    if (map_reserve(ctx, 1) != 0 || buffer_reserve(ctx, 1) != 0) return -1;
    map_insert(ctx, key, BUFFERED(buffer_append(ctx, source_hash, destination_hash, 0.0 + weight)));
    return 0;
}

/* Edges in the left-over buffer. */
int64_t gss_buffer_count(gss_ctx *ctx) {
    return ctx->buf_count;
}

/* The destinations of node_hash's buffered out-edges (forward; else the
 * sources of its in-edges), in creation order: the first cap go to out, and
 * the count of all is returned. */
int64_t gss_buffer_neighbors(gss_ctx *ctx, uint64_t node_hash, int32_t forward,
                             uint64_t *out, int64_t cap) {
    int64_t count = 0;
    for (uint32_t id = chain_head(ctx, node_hash, forward); id; count++) {
        const buffer_entry *entry = &ctx->buf[id - 1];
        if (count < cap) out[count] = forward ? entry->dst : entry->src;
        id = forward ? entry->next_out : entry->next_in;
    }
    return count;
}

/* The hashes of node_hash's successors (forward) or precursors: the matrix
 * scan's, then its buffer chain's (a hash may repeat).  The first cap go to
 * out, and the count of all is returned. */
int64_t gss_neighbor_hashes(gss_ctx *ctx, uint64_t node_hash, int32_t forward,
                            uint64_t *out, int64_t cap) {
    int64_t found = scan_rooms(ctx, node_hash, forward);
    int64_t kept = found < cap ? found : cap;
    if (kept) memcpy(out, ctx->cfg.scan_out, (size_t)kept * sizeof(uint64_t));
    return found + gss_buffer_neighbors(ctx, node_hash, forward, out + kept, cap - kept);
}

/* Every buffered edge, grouped by source in first-seen source order and in
 * creation order within a source (the python backend's dict-of-dicts
 * order), into gss_buffer_count() slots of each column; returns the count. */
int64_t gss_buffer_edges(gss_ctx *ctx, uint64_t *sources, uint64_t *destinations,
                         double *weights) {
    int64_t written = 0;
    for (int64_t e = 0; e < ctx->buf_count; e++) {
        uint32_t id = chain_head(ctx, ctx->buf[e].src, 1);
        if (id != (uint32_t)(e + 1)) continue; /* not its source's first entry */
        for (; id; id = ctx->buf[id - 1].next_out) {
            const buffer_entry *entry = &ctx->buf[id - 1];
            sources[written] = entry->src;
            destinations[written] = entry->dst;
            weights[written] = entry->weight;
            written++;
        }
    }
    return written;
}

/* Write each item's (H(s), H(d), weight) row into its shard's region of the
 * out_* columns (shard 0 first, stream order within a shard) and each new
 * token's (index, hash) into its shard's region of new_*, given the item's
 * shard, the interleaved token hashes and new-token flags, and the per-shard
 * counts. */
static void scatter_shards(
    int64_t n, int64_t shards,
    const int8_t *item_shard, const uint64_t *tok_hash, const uint8_t *tok_new,
    const double *weights,
    const int64_t *item_counts, const int64_t *new_counts,
    uint64_t *out_src, uint64_t *out_dst, double *out_weights,
    int64_t *new_tokens, uint64_t *new_hashes)
{
    int64_t item_at[ROUTER_MAX_SHARDS];
    int64_t new_at[ROUTER_MAX_SHARDS];
    int64_t item_total = 0;
    int64_t new_total = 0;
    for (int64_t k = 0; k < shards; k++) {
        item_at[k] = item_total;
        new_at[k] = new_total;
        item_total += item_counts[k];
        new_total += new_counts[k];
    }
    for (int64_t i = 0; i < n; i++) {
        int8_t k = item_shard[i];
        int64_t row = item_at[k]++;
        out_src[row] = tok_hash[2 * i];
        out_dst[row] = tok_hash[2 * i + 1];
        out_weights[row] = weights[i];
        for (int64_t token_index = 2 * i; token_index <= 2 * i + 1; token_index++) {
            if (!tok_new[token_index]) continue;
            int64_t slot = new_at[k]++;
            new_tokens[slot] = token_index;
            new_hashes[slot] = tok_hash[token_index];
        }
    }
}

gss_router *gss_router_new(int64_t shards) {
    if (shards < 1 || shards > ROUTER_MAX_SHARDS) return NULL;
    gss_router *router = (gss_router *)calloc(1, sizeof(gss_router));
    if (!router) return NULL;
    if (node_table_init(&router->nodes, 0) != 0) {
        free(router);
        return NULL;
    }
    router->shards = shards;
    router->sent_bytes = (shards + 7) / 8;
    return router;
}

void gss_router_free(gss_router *router) {
    if (!router) return;
    node_table_free(&router->nodes);
    free(router->home);
    free(router->sent);
    free(router->tok_hash);
    free(router->tok_new);
    free(router->item_shard);
    free(router);
}

/* Grow the per-node arrays and the per-batch scratch for a batch of n items
 * (at most 2n new nodes).  Fresh per-node slots start unrouted and unsent.
 * Returns node_reserve's status. */
static int router_reserve(gss_router *router, int64_t n, int64_t blob_len) {
    int reserved = node_reserve(&router->nodes, 2 * n, blob_len);
    if (reserved != 0) return reserved;
    int64_t want = router->nodes.count + 2 * n;
    if (want > router->node_cap) {
        int64_t cap = router->node_cap ? router->node_cap : 1024;
        while (cap < want) cap *= 2;
        int8_t *home = (int8_t *)realloc(router->home, (size_t)cap);
        if (!home) return -1;
        router->home = home;
        uint8_t *sent = (uint8_t *)realloc(router->sent, (size_t)(cap * router->sent_bytes));
        if (!sent) return -1;
        router->sent = sent;
        memset(home + router->node_cap, -1, (size_t)(cap - router->node_cap));
        memset(sent + router->node_cap * router->sent_bytes, 0,
               (size_t)((cap - router->node_cap) * router->sent_bytes));
        router->node_cap = cap;
    }
    if (2 * n > router->tok_cap) {
        free(router->tok_hash);
        free(router->tok_new);
        free(router->item_shard);
        router->tok_hash = (uint64_t *)malloc((size_t)(2 * n) * sizeof(uint64_t));
        router->tok_new = (uint8_t *)malloc((size_t)(2 * n));
        router->item_shard = (int8_t *)malloc((size_t)n);
        if (!router->tok_hash || !router->tok_new || !router->item_shard) {
            router->tok_cap = 0;
            return -1;
        }
        router->tok_cap = 2 * n;
    }
    return 0;
}

/* The sharded deployment's whole front end for an all-string batch: blob
 * holds 2n NUL-separated UTF-8 node IDs in interleaved (source, destination)
 * stream order, as for gss_ingest_text_batch.  In one pass it
 *
 *   1. hashes each token through the router's node table — H(v) once per
 *      distinct node, and the seed-97 routing hash (route_state0 is its
 *      seeded FNV state) once per distinct source, the first time the node
 *      is seen as a source — and routes the item to shard route % shards;
 *   2. writes the shards' (H(s), H(d), weight) columns back to back, shard
 *      0 first, each in stream order, with item_counts[k] rows for shard k;
 *   3. reports, per shard and in first-seen interleaved order, the tokens
 *      whose node that shard has never been sent (token index into the
 *      batch, and H(v)), new_counts[k] of them for shard k, and marks them
 *      sent.
 *
 * out_* need n entries, new_* 2n, the counts one per shard.  Returns the
 * number of key hashes computed (node plus routing hashes), -1 on
 * allocation failure, or -2 when the kernel cannot take the batch (the
 * token count does not match 2n, or the node arena is full); both are
 * detected before any state changes. */
int64_t gss_route_text_batch(
    gss_router *router,
    const unsigned char *blob, int64_t blob_len,
    const double *weights, int64_t n,
    uint64_t node_state0, uint64_t route_state0, uint64_t hash_range,
    uint64_t *out_src, uint64_t *out_dst, double *out_weights,
    int64_t *item_counts,
    int64_t *new_tokens, uint64_t *new_hashes, int64_t *new_counts)
{
    int64_t shards = router->shards;
    for (int64_t k = 0; k < shards; k++) {
        item_counts[k] = 0;
        new_counts[k] = 0;
    }
    if (n <= 0) return 0;
    if (count_separators(blob, blob_len) != 2 * n - 1) return -2;
    int reserved = router_reserve(router, n, blob_len);
    if (reserved != 0) return reserved;

    /* Pass 1 — hash, route, and flag first sightings per shard. */
    int64_t hashed = 0;
    int8_t shard = 0;
    int64_t tok_start = 0;
    int64_t t = 0;
    for (int64_t i = 0; i <= blob_len; i++) {
        if (i < blob_len && blob[i] != 0) continue;
        const unsigned char *token = blob + tok_start;
        uint32_t len = (uint32_t)(i - tok_start);
        uint32_t *slot = node_slot(&router->nodes, token, len);
        node_entry *entry;
        if (*slot) {
            entry = &router->nodes.entries[*slot - 1];
        } else {
            entry = node_add(&router->nodes, slot, token, len,
                             hash_token(token, len, node_state0) % hash_range);
            hashed++;
        }
        int64_t id = entry - router->nodes.entries;
        if (!(t & 1)) {
            if (router->home[id] < 0) {
                router->home[id] =
                    (int8_t)(hash_token(token, len, route_state0) % (uint64_t)shards);
                hashed++;
            }
            shard = router->home[id];
            router->item_shard[t >> 1] = shard;
            item_counts[shard]++;
        }
        uint8_t *sent = &router->sent[id * router->sent_bytes + (shard >> 3)];
        uint8_t bit = (uint8_t)(1u << (shard & 7));
        router->tok_hash[t] = entry->hmod;
        router->tok_new[t] = (*sent & bit) == 0;
        if (router->tok_new[t]) {
            *sent |= bit;
            new_counts[shard]++;
        }
        t++;
        tok_start = i + 1;
    }

    scatter_shards(n, shards, router->item_shard, router->tok_hash, router->tok_new,
                   weights, item_counts, new_counts,
                   out_src, out_dst, out_weights, new_tokens, new_hashes);
    return hashed;
}

/* One LCG step q' = (a * q + b) % p, with the Mersenne fold for the default
 * modulus. */
static inline uint64_t lcg_next(uint64_t cur, uint64_t lcg_a, uint64_t lcg_b,
                                uint64_t lcg_p) {
    return lcg_p == MERSENNE31 ? mod_m31(lcg_a * cur + lcg_b)
                               : (lcg_a * cur + lcg_b) % lcg_p;
}

/* Matrix half of a successor (forward) or precursor query for node_hash.
 * Walks the node's r addressed rows (columns) bucket by bucket up to each
 * bucket's fill and writes the recovered hash of every matching room's
 * other endpoint to out; returns how many it wrote.  A room matches at most
 * once — only at the address position its stored own index names — so out
 * needs r * m * l entries (r = 1 without square hashing).  Without square
 * hashing the other endpoint's base address is the column (row) itself;
 * with it, the base is recovered as in linear_congruence.recover_address.
 * The function is cache-line aligned: where its loop falls against 64-byte
 * lines sets its speed, and unaligned, any edit above it in this file moves
 * it (deleting a 16-byte function once cost every scan ~10%).  It is kept
 * out of line for the same reason: inlined into a caller, it loses the
 * alignment. */
__attribute__((noinline, aligned(64)))
static int64_t gss_neighbor_scan(
    uint64_t node_hash, int32_t forward,
    uint64_t fp_range, int64_t width, int64_t rooms,
    int64_t seq_length, int32_t square_hashing,
    uint64_t lcg_a, uint64_t lcg_b, uint64_t lcg_p,
    const int64_t *src_fp_arr, const int64_t *dst_fp_arr,
    const int64_t *src_idx_arr, const int64_t *dst_idx_arr,
    const uint8_t *fill,
    uint64_t *out)
{
    uint64_t base = node_hash / fp_range;
    int64_t fingerprint = (int64_t)(node_hash % fp_range);
    const int64_t *own_fp = forward ? src_fp_arr : dst_fp_arr;
    const int64_t *own_idx = forward ? src_idx_arr : dst_idx_arr;
    const int64_t *other_fp = forward ? dst_fp_arr : src_fp_arr;
    const int64_t *other_idx = forward ? dst_idx_arr : src_idx_arr;
    /* bucket (line, k) of a row scan is line * m + k, of a column scan
     * k * m + line */
    int64_t line_stride = forward ? width : 1;
    int64_t step = forward ? 1 : width;
    int64_t lines = square_hashing ? seq_length : 1;
    uint64_t cur = (uint64_t)fingerprint % lcg_p;
    int64_t found = 0;
    for (int64_t i = 0; i < lines; i++) {
        int64_t line;
        if (square_hashing) {
            cur = lcg_next(cur, lcg_a, lcg_b, lcg_p);
            line = (int64_t)((base + cur) % (uint64_t)width);
        } else {
            line = (int64_t)(base % (uint64_t)width);
        }
        for (int64_t k = 0; k < width; k++) {
            int64_t bucket = line * line_stride + k * step;
            int64_t slot = bucket * rooms;
            int64_t end = slot + fill[bucket];
            for (; slot < end; slot++) {
                if (own_fp[slot] != fingerprint || own_idx[slot] != i + 1)
                    continue;
                uint64_t fp = (uint64_t)other_fp[slot];
                uint64_t other_base = (uint64_t)k;
                if (square_hashing) {
                    uint64_t offset = fp % lcg_p;
                    for (int64_t n = 0; n < other_idx[slot]; n++)
                        offset = lcg_next(offset, lcg_a, lcg_b, lcg_p);
                    other_base = ((uint64_t)k + (uint64_t)width
                                  - offset % (uint64_t)width) % (uint64_t)width;
                }
                out[found++] = other_base * fp_range + fp;
            }
        }
    }
    return found;
}

/* Nodes recorded in the sketch's node table. */
int64_t gss_node_count(gss_ctx *ctx) {
    return ctx->nodes.count;
}

/* Modes of gss_node_resolve. */
#define NODE_LOOKUP 0
#define NODE_RESOLVE 1
#define NODE_RECORD 2

/* The sketch's node table for n tokens laid back to back in bytes (token i
 * is lengths[i] bytes long; a NUL inside a token is fine).  ids[i] becomes
 * the token's 1-based entry id (its first-seen position), and
 *
 *   NODE_LOOKUP  — hashes[i] its recorded hash, or ids[i] = 0 when the node
 *                  is unknown; nothing changes;
 *   NODE_RESOLVE — hashes[i] its recorded hash, a new node hashed with the
 *                  seeded FNV state fnv_state0 and recorded;
 *   NODE_RECORD  — a new node is recorded under the supplied hashes[i]; a
 *                  known node recorded under another hash leaves *conflict
 *                  at the first such i (else -1), and every other token is
 *                  still recorded.
 *
 * New nodes are recorded in token order.  Returns the number recorded (0 for
 * a lookup), -1 on allocation failure, or -2 when the table cannot take the
 * tokens — their lengths do not add up to bytes_len, or the arena is full;
 * both leave the table unchanged. */
int64_t gss_node_resolve(
    gss_ctx *ctx, int32_t mode,
    const unsigned char *bytes, int64_t bytes_len,
    const int64_t *lengths, int64_t n,
    uint64_t fnv_state0, uint64_t hash_range,
    uint64_t *hashes, int64_t *ids, int64_t *conflict)
{
    int64_t total = 0;
    for (int64_t i = 0; i < n; i++) {
        if (lengths[i] < 0 || lengths[i] > bytes_len - total) return -2;
        total += lengths[i];
    }
    if (total != bytes_len) return -2;
    if (mode != NODE_LOOKUP) {
        int reserved = ctx_reserve(ctx, n, bytes_len);
        if (reserved != 0) return reserved;
    }
    *conflict = -1;
    node_table *table = &ctx->nodes;
    int64_t added = 0;
    const unsigned char *token = bytes;
    for (int64_t i = 0; i < n; token += lengths[i], i++) {
        uint32_t len = (uint32_t)lengths[i];
        uint32_t *slot = node_slot(table, token, len);
        if (*slot) {
            const node_entry *entry = &table->entries[*slot - 1];
            if (mode != NODE_RECORD)
                hashes[i] = entry->hmod;
            else if (entry->hmod != hashes[i] && *conflict < 0)
                *conflict = i;
        } else if (mode == NODE_LOOKUP) {
            ids[i] = 0;
            continue;
        } else {
            uint64_t hmod = mode == NODE_RESOLVE
                ? hash_token(token, len, fnv_state0) % hash_range
                : hashes[i];
            node_add(table, slot, token, len, hmod);
            hashes[i] = hmod;
            added++;
        }
        ids[i] = *slot;
    }
    return added;
}

/* Write the IDs recorded under each of the n distinct hashes — or, for
 * n < 0, every recorded ID in first-seen order — into the caller's buffers
 * (node_ids_out).  Returns ids_written(). */
int64_t gss_node_ids(gss_ctx *ctx, const uint64_t *hashes, int64_t n, node_ids_out *out) {
    node_table *table = &ctx->nodes;
    out->count = 0;
    out->len = 0;
    out->nul = table->has_nul;
    if (n >= 0) {
        for (int64_t k = 0; k < n; k++) ids_append(table, hashes[k], out);
        return ids_written(out);
    }
    out->count = table->count;
    out->len = table->arena_len + table->count;
    if (ids_written(out) < 0) return -1;
    unsigned char *cursor = out->bytes;
    for (int64_t k = 0; k < table->count; k++) {
        const node_entry *entry = &table->entries[k];
        if (entry->len) memcpy(cursor, table->arena + entry->off, entry->len);
        cursor += entry->len;
        *cursor++ = 0;
        out->lengths[k] = entry->len;
        out->hashes[k] = entry->hmod;
    }
    return out->len;
}
