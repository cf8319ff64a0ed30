/* Compiled placement and scan kernel for the GSS "native" matrix backend.
 *
 * Rooms are stored in the paper's own matrix layout, bucket-major: room q of
 * bucket (row, col) lives at slot (row * m + col) * l + q of the caller's
 * struct-of-arrays storage (fingerprint pair, index pair, weight), and the
 * per-bucket fill table says which of a bucket's l slots are live.  Rooms
 * fill a bucket in insertion order and never move.
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
 *   4. spills edges whose candidates are all full, in first-seen order.
 *
 * gss_ingest_text_batch() pushes the boundary one stage earlier: it takes
 * the batch's node identifiers as a single NUL-joined UTF-8 blob
 * (interleaved source0, dest0, source1, dest1, ...), hashes each token with
 * the same seeded FNV-1a / splitmix64 mix as repro.hashing.hash_functions,
 * memoizes tokens in a persistent bytes->hash table (so repeat nodes are a
 * probe, not a rehash of Python machinery), packs the edge keys and then
 * runs the exact pipeline above — so for string node IDs an entire
 * update_many() batch crosses the Python/kernel boundary once.  Genuinely
 * new nodes come back as (blob offset, length, hash) triples so Python can
 * register them in the reverse node index in the same first-seen
 * interleaved order the scalar backends use.
 *
 * gss_neighbor_scan() answers the matrix half of a successor (precursor)
 * query the way Section V of the paper does: it walks the node's r rows
 * (columns) bucket by bucket up to each bucket's fill, keeps rooms whose own
 * fingerprint and index match, and recovers the other endpoint's hash from
 * the column (row), its fingerprint and its index (Theorem 1).  The cost is
 * O(r * m * l) slots, whatever the number of stored edges.
 *
 * The edge->slot map and the node table are the kernel's only persistent
 * state (gss_ctx).  Room arrays, the per-bucket fill table and the
 * left-over buffer stay owned by Python: rooms and fill are written through
 * pointers, buffer spills are returned as (key, aggregated-weight) arrays
 * because the buffer is an exact adjacency structure with Python dict
 * semantics.
 *
 * Equivalence with the python backend is load-bearing and exact:
 * the FNV/splitmix node hashes, the LCG walks, the probe order, the
 * first-seen contention winners and the IEEE-754 accumulation order all
 * match the scalar reference (see repro/core/backends.py module docstring
 * and tests/test_native_backend.py).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Values stored in the edge->slot map.  Must match repro.core.backends. */
#define SLOT_BUFFERED (-1)
#define SLOT_MISSING (-2)

/* Open-addressing key marker.  A packed key can only equal UINT64_MAX when
 * hash_range is exactly 2^32 and both node hashes are maximal; that one key
 * is tracked in a dedicated side slot so the sentinel stays unambiguous. */
#define EMPTY_KEY UINT64_MAX

/* FNV-1a multiplier; the seeded initial state arrives precomputed from
 * Python (FNV offset basis XOR splitmix64(seed)), see hash_functions.py. */
#define FNV_PRIME 0x100000001B3ULL

/* Node-table entry: one distinct node identifier ever seen by the text
 * path.  The identifier's bytes live in the context's arena; h64 is the
 * full 64-bit mix (also the table position hash) and hmod the sketch hash
 * H(v) = h64 % hash_range.  used distinguishes live entries because the
 * empty string is a valid zero-length node ID. */
typedef struct {
    uint64_t off;
    uint64_t h64;
    uint64_t hmod;
    uint32_t len;
    uint32_t used;
} node_entry;

typedef struct {
    /* persistent edge->slot open-addressing table (linear probing, pow2) */
    uint64_t *keys;
    int64_t *vals;
    int64_t capacity;
    int64_t count;
    int has_max_key;
    int64_t max_key_val;
    /* persistent node bytes->hash table + byte arena (text path memo) */
    node_entry *nodes;
    int64_t node_cap;
    int64_t node_count;
    unsigned char *arena;
    int64_t arena_len;
    int64_t arena_cap;
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

/* Exported ABI.  Every non-static function below must appear here (the
 * build runs with -Wmissing-prototypes under -Werror) and must stay in
 * sync with the ctypes bindings in __init__.py — drift is caught by
 * `python -m repro.devtools.lint` (rule abi-check). */
gss_ctx *gss_new(void);
void gss_free(gss_ctx *ctx);
int64_t gss_map_get(gss_ctx *ctx, uint64_t key);
int gss_map_put(gss_ctx *ctx, uint64_t key, int64_t val);
int64_t gss_map_len(gss_ctx *ctx);
int64_t gss_ingest_batch(
    gss_ctx *ctx,
    const uint64_t *keys, const double *weights, int64_t n,
    uint64_t hash_range, uint64_t fp_range,
    int64_t width, int64_t rooms,
    int64_t seq_length, int64_t candidates,
    int32_t square_hashing, int32_t sampling,
    uint64_t lcg_a, uint64_t lcg_b, uint64_t lcg_p,
    int64_t *src_fp_arr, int64_t *dst_fp_arr,
    int64_t *src_idx_arr, int64_t *dst_idx_arr,
    double *room_weights,
    uint8_t *fill,
    uint64_t *spill_keys, double *spill_sums, int64_t *spill_count,
    uint64_t *rebuf_keys, double *rebuf_sums, int64_t *rebuf_count);
int64_t gss_ingest_text_batch(
    gss_ctx *ctx,
    const unsigned char *blob, int64_t blob_len,
    const double *weights, int64_t n,
    uint64_t fnv_state0,
    uint64_t hash_range, uint64_t fp_range,
    int64_t width, int64_t rooms,
    int64_t seq_length, int64_t candidates,
    int32_t square_hashing, int32_t sampling,
    uint64_t lcg_a, uint64_t lcg_b, uint64_t lcg_p,
    int64_t *src_fp_arr, int64_t *dst_fp_arr,
    int64_t *src_idx_arr, int64_t *dst_idx_arr,
    double *room_weights,
    uint8_t *fill,
    uint64_t *spill_keys, double *spill_sums, int64_t *spill_count,
    uint64_t *rebuf_keys, double *rebuf_sums, int64_t *rebuf_count,
    int64_t *new_offs, int64_t *new_lens, uint64_t *new_hashes,
    int64_t *new_count);
int64_t gss_neighbor_scan(
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

gss_ctx *gss_new(void) {
    gss_ctx *ctx = (gss_ctx *)calloc(1, sizeof(gss_ctx));
    if (!ctx) return NULL;
    ctx->capacity = 1024;
    ctx->keys = (uint64_t *)malloc((size_t)ctx->capacity * sizeof(uint64_t));
    ctx->vals = (int64_t *)malloc((size_t)ctx->capacity * sizeof(int64_t));
    ctx->node_cap = 1024;
    ctx->nodes = (node_entry *)calloc((size_t)ctx->node_cap, sizeof(node_entry));
    if (!ctx->keys || !ctx->vals || !ctx->nodes) {
        free(ctx->keys);
        free(ctx->vals);
        free(ctx->nodes);
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
    free(ctx->nodes);
    free(ctx->arena);
    free(ctx->bkeys);
    free(ctx->bvals);
    free(ctx->ukeys);
    free(ctx->usums);
    free(ctx->saddr);
    free(ctx->tkeys);
    free(ctx);
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

int gss_map_put(gss_ctx *ctx, uint64_t key, int64_t val) {
    if (key == EMPTY_KEY) {
        if (!ctx->has_max_key) {
            ctx->has_max_key = 1;
            ctx->count++;
        }
        ctx->max_key_val = val;
        return 0;
    }
    /* grow at 70% load so probe chains stay short */
    if ((ctx->count + 1) * 10 >= ctx->capacity * 7) {
        if (map_grow(ctx) != 0) return -1;
    }
    uint64_t mask = (uint64_t)ctx->capacity - 1;
    uint64_t pos = mix_key(key) & mask;
    while (ctx->keys[pos] != EMPTY_KEY) {
        if (ctx->keys[pos] == key) {
            ctx->vals[pos] = val;
            return 0;
        }
        pos = (pos + 1) & mask;
    }
    ctx->keys[pos] = key;
    ctx->vals[pos] = val;
    ctx->count++;
    return 0;
}

int64_t gss_map_len(gss_ctx *ctx) { return ctx->count; }

static int node_grow(gss_ctx *ctx) {
    int64_t old_cap = ctx->node_cap;
    node_entry *old = ctx->nodes;
    int64_t cap = old_cap * 2;
    node_entry *nodes = (node_entry *)calloc((size_t)cap, sizeof(node_entry));
    if (!nodes) return -1;
    uint64_t mask = (uint64_t)cap - 1;
    for (int64_t i = 0; i < old_cap; i++) {
        if (!old[i].used) continue;
        uint64_t pos = old[i].h64 & mask;
        while (nodes[pos].used) pos = (pos + 1) & mask;
        nodes[pos] = old[i];
    }
    free(old);
    ctx->nodes = nodes;
    ctx->node_cap = cap;
    return 0;
}

static int arena_append(gss_ctx *ctx, const unsigned char *data, uint32_t len,
                        uint64_t *off_out) {
    if (ctx->arena_len + (int64_t)len > ctx->arena_cap) {
        int64_t cap = ctx->arena_cap ? ctx->arena_cap * 2 : 65536;
        while (cap < ctx->arena_len + (int64_t)len) cap *= 2;
        unsigned char *arena = (unsigned char *)realloc(ctx->arena, (size_t)cap);
        if (!arena) return -1;
        ctx->arena = arena;
        ctx->arena_cap = cap;
    }
    memcpy(ctx->arena + ctx->arena_len, data, len);
    *off_out = (uint64_t)ctx->arena_len;
    ctx->arena_len += len;
    return 0;
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
        if (!ctx->bkeys || !ctx->bvals) return -1;
        ctx->bcap = want;
    }
    if (n > ctx->ucap) {
        free(ctx->ukeys);
        free(ctx->usums);
        ctx->ukeys = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
        ctx->usums = (double *)malloc((size_t)n * sizeof(double));
        if (!ctx->ukeys || !ctx->usums) return -1;
        ctx->ucap = n;
    }
    if (2 * seq_length > ctx->acap) {
        free(ctx->saddr);
        ctx->saddr = (int64_t *)malloc((size_t)(2 * seq_length) * sizeof(int64_t));
        if (!ctx->saddr) return -1;
        ctx->acap = 2 * seq_length;
    }
    return 0;
}

/* Shared placement pipeline; returns the number of rooms placed or -1. */
static int64_t ingest_core(
    gss_ctx *ctx,
    const uint64_t *keys, const double *weights, int64_t n,
    uint64_t hash_range, uint64_t fp_range,
    int64_t width, int64_t rooms,
    int64_t seq_length, int64_t candidates,
    int32_t square_hashing, int32_t sampling,
    uint64_t lcg_a, uint64_t lcg_b, uint64_t lcg_p,
    int64_t *src_fp_arr, int64_t *dst_fp_arr,
    int64_t *src_idx_arr, int64_t *dst_idx_arr,
    double *room_weights,
    uint8_t *fill,
    uint64_t *spill_keys, double *spill_sums, int64_t *spill_count,
    uint64_t *rebuf_keys, double *rebuf_sums, int64_t *rebuf_count)
{
    if (ensure_scratch(ctx, n, seq_length) != 0) return -1;

    /* Pass 1 — aggregate per unique key.  Uniques are numbered in first-seen
     * order; each unique's weight accumulates in stream order, exactly like
     * the scalar dict and np.bincount paths (same IEEE addition order). */
    uint64_t bmask = (uint64_t)ctx->bcap - 1;
    memset(ctx->bkeys, 0xFF, (size_t)ctx->bcap * sizeof(uint64_t));
    int64_t max_key_unique = -1; /* batch-table side slot for key==EMPTY_KEY */
    int64_t nunique = 0;
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

    /* Pass 2 — classify and place, in first-seen order (the only order that
     * is observable: it decides same-batch bucket contention and buffer
     * entry creation, matching the scalar backend's single pass). */
    int64_t *saddr = ctx->saddr;
    int64_t *daddr = ctx->saddr + seq_length;
    int64_t span = seq_length * seq_length;
    int fast31 = (lcg_p == MERSENNE31);
    int64_t placed = 0;
    *spill_count = 0;
    *rebuf_count = 0;
    for (int64_t u = 0; u < nunique; u++) {
        uint64_t key = ctx->ukeys[u];
        double sum = ctx->usums[u];
        int64_t slot = gss_map_get(ctx, key);
        if (slot >= 0) {
            room_weights[slot] += sum;
            continue;
        }
        if (slot == SLOT_BUFFERED) {
            rebuf_keys[*rebuf_count] = key;
            rebuf_sums[*rebuf_count] = sum;
            (*rebuf_count)++;
            continue;
        }
        /* unseen: split the packed key and derive the probe sequence */
        uint64_t source_hash = key / hash_range;
        uint64_t destination_hash = key % hash_range;
        int64_t source_base = (int64_t)(source_hash / fp_range);
        int64_t source_fp = (int64_t)(source_hash % fp_range);
        int64_t destination_base = (int64_t)(destination_hash / fp_range);
        int64_t destination_fp = (int64_t)(destination_hash % fp_range);
        int64_t probes = candidates;
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
                if (gss_map_put(ctx, key, room) != 0) return -1;
                placed++;
                break;
            }
        }
        if (placed == before) {
            if (gss_map_put(ctx, key, SLOT_BUFFERED) != 0) return -1;
            spill_keys[*spill_count] = key;
            spill_sums[*spill_count] = sum;
            (*spill_count)++;
        }
    }
    return placed;
}

int64_t gss_ingest_batch(
    gss_ctx *ctx,
    const uint64_t *keys, const double *weights, int64_t n,
    uint64_t hash_range, uint64_t fp_range,
    int64_t width, int64_t rooms,
    int64_t seq_length, int64_t candidates,
    int32_t square_hashing, int32_t sampling,
    uint64_t lcg_a, uint64_t lcg_b, uint64_t lcg_p,
    int64_t *src_fp_arr, int64_t *dst_fp_arr,
    int64_t *src_idx_arr, int64_t *dst_idx_arr,
    double *room_weights,
    uint8_t *fill,
    uint64_t *spill_keys, double *spill_sums, int64_t *spill_count,
    uint64_t *rebuf_keys, double *rebuf_sums, int64_t *rebuf_count)
{
    if (n <= 0) return 0;
    return ingest_core(
        ctx, keys, weights, n, hash_range, fp_range, width, rooms,
        seq_length, candidates, square_hashing, sampling,
        lcg_a, lcg_b, lcg_p,
        src_fp_arr, dst_fp_arr, src_idx_arr, dst_idx_arr,
        room_weights, fill,
        spill_keys, spill_sums, spill_count,
        rebuf_keys, rebuf_sums, rebuf_count);
}

/* Whole-batch text ingestion: blob holds 2n NUL-separated UTF-8 node IDs in
 * interleaved (source, destination) stream order.  Returns the number of
 * rooms placed, -1 on allocation failure, or -2 when the token count does not
 * match 2n (checked before any state mutation, so the caller can fall back
 * to the per-key path with the kernel untouched). */
int64_t gss_ingest_text_batch(
    gss_ctx *ctx,
    const unsigned char *blob, int64_t blob_len,
    const double *weights, int64_t n,
    uint64_t fnv_state0,
    uint64_t hash_range, uint64_t fp_range,
    int64_t width, int64_t rooms,
    int64_t seq_length, int64_t candidates,
    int32_t square_hashing, int32_t sampling,
    uint64_t lcg_a, uint64_t lcg_b, uint64_t lcg_p,
    int64_t *src_fp_arr, int64_t *dst_fp_arr,
    int64_t *src_idx_arr, int64_t *dst_idx_arr,
    double *room_weights,
    uint8_t *fill,
    uint64_t *spill_keys, double *spill_sums, int64_t *spill_count,
    uint64_t *rebuf_keys, double *rebuf_sums, int64_t *rebuf_count,
    int64_t *new_offs, int64_t *new_lens, uint64_t *new_hashes,
    int64_t *new_count)
{
    if (n <= 0) return 0;
    /* Defensive token-count check (Python already screens for embedded
     * NULs); runs before any mutation so -2 is a clean fallback. */
    int64_t seps = 0;
    {
        const unsigned char *p = blob;
        const unsigned char *end = blob + blob_len;
        while (p < end && (p = memchr(p, 0, (size_t)(end - p))) != NULL) {
            seps++;
            p++;
        }
    }
    if (seps != 2 * n - 1) return -2;
    if (n > ctx->tcap) {
        free(ctx->tkeys);
        ctx->tkeys = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
        if (!ctx->tkeys) return -1;
        ctx->tcap = n;
    }
    *new_count = 0;
    uint64_t prev_hmod = 0;
    int64_t tok_start = 0;
    int64_t t = 0;
    for (int64_t i = 0; i <= blob_len; i++) {
        if (i < blob_len && blob[i] != 0) continue;
        /* token = blob[tok_start:i): FNV-1a from the seeded state, then the
         * splitmix64 finalizer — hash_functions.hash_string byte for byte */
        uint32_t len = (uint32_t)(i - tok_start);
        uint64_t state = fnv_state0;
        for (int64_t b = tok_start; b < i; b++) {
            state ^= blob[b];
            state *= FNV_PRIME;
        }
        uint64_t h64 = mix_key(state);
        uint64_t hmod = h64 % hash_range;
        /* memoize in the persistent node table; report first sightings */
        uint64_t mask = (uint64_t)ctx->node_cap - 1;
        uint64_t pos = h64 & mask;
        for (;;) {
            node_entry *entry = &ctx->nodes[pos];
            if (!entry->used) {
                if ((ctx->node_count + 1) * 10 >= ctx->node_cap * 7) {
                    if (node_grow(ctx) != 0) return -1;
                    mask = (uint64_t)ctx->node_cap - 1;
                    pos = h64 & mask;
                    while (ctx->nodes[pos].used) pos = (pos + 1) & mask;
                    entry = &ctx->nodes[pos];
                }
                uint64_t off;
                if (arena_append(ctx, blob + tok_start, len, &off) != 0)
                    return -1;
                entry->used = 1;
                entry->off = off;
                entry->len = len;
                entry->h64 = h64;
                entry->hmod = hmod;
                ctx->node_count++;
                new_offs[*new_count] = tok_start;
                new_lens[*new_count] = (int64_t)len;
                new_hashes[*new_count] = hmod;
                (*new_count)++;
                break;
            }
            if (entry->h64 == h64 && entry->len == len &&
                memcmp(ctx->arena + entry->off, blob + tok_start, len) == 0)
                break;
            pos = (pos + 1) & mask;
        }
        if (t & 1)
            ctx->tkeys[t >> 1] = prev_hmod * hash_range + hmod;
        else
            prev_hmod = hmod;
        t++;
        tok_start = i + 1;
    }
    return ingest_core(
        ctx, ctx->tkeys, weights, n, hash_range, fp_range, width, rooms,
        seq_length, candidates, square_hashing, sampling,
        lcg_a, lcg_b, lcg_p,
        src_fp_arr, dst_fp_arr, src_idx_arr, dst_idx_arr,
        room_weights, fill,
        spill_keys, spill_sums, spill_count,
        rebuf_keys, rebuf_sums, rebuf_count);
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
 * with it, the base is recovered as in linear_congruence.recover_address. */
int64_t gss_neighbor_scan(
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
