/*
 * Native JSON float-array scanner for repro.core.serialize.loads.
 *
 * One pass over a JSON text that skips string literals and finds
 *   - every flat array whose elements are all JSON float literals (a
 *     number with a fraction or an exponent), whose values it converts
 *     into `values`;
 *   - every NaN, Infinity and -Infinity token.
 * It writes the text's *skeleton*, the text with each such array
 * replaced by the token NaN, and one tag per find, in document order:
 * an array's value count (> 0) or a PHOCUS_JSON_* constant kind (<= 0).
 * The scan never judges whether the text is valid JSON.  The caller lets
 * Python's json module parse the skeleton and answers its parse_constant
 * calls from the tags, so the grammar accepted here (numbers,
 * whitespace) must be a subset of json's.
 *
 * Conversion is Eisel-Lemire (Lemire, "Number Parsing at a Gigabyte per
 * Second", 2021) over a truncated 128-bit table of 10^e that the loader
 * derives from exact integers.  Literals it cannot decide exactly (more
 * than 19 significant digits, a halfway-ambiguous product, an exponent
 * outside the table, a subnormal or overflowing result) go to strtod_l
 * in the C locale, which glibc rounds correctly, as CPython does.
 *
 * All memory is the caller's: the scan keeps no state between calls, so
 * threads may scan at once.
 */
#define _GNU_SOURCE
#include <locale.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* cdef-begin */
typedef struct {
    const char *text;          /* the JSON text, UTF-8 */
    int64_t size;
    const uint64_t *powers;    /* (hi, lo) per 10^e, e = min_exp10..max_exp10 */
    int64_t min_exp10, max_exp10;
    void *locale;              /* a C locale_t for strtod_l */
    char *skeleton;            /* room for `size` bytes */
    int64_t *tags;
    int64_t max_tags;
    double *values;
    int64_t max_values;
    int64_t skeleton_size;     /* out */
    int64_t n_tags;            /* out */
    int64_t n_values;          /* out */
} phocus_json_scan;

int phocus_json_scan_text(phocus_json_scan *s);
void *phocus_json_c_locale(void);
/* cdef-end */

enum { PHOCUS_JSON_NAN = 0, PHOCUS_JSON_INF = -1, PHOCUS_JSON_NEG_INF = -2 };
enum { PHOCUS_JSON_DONE = 0, PHOCUS_JSON_TOO_DEEP = 1, PHOCUS_JSON_FULL = 2 };

/* Instance documents nest about 6 deep; anything much deeper goes to
 * json.loads whole, whose recursion limit then answers as it always has. */
#define PHOCUS_JSON_MAX_DEPTH 64
#define MAX_DIGITS 19  /* every 19-digit decimal fits a uint64 */

void *phocus_json_c_locale(void)
{
    return (void *)newlocale(LC_ALL_MASK, "C", (locale_t)0);
}

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/* json's whitespace, exactly: a wider set would let an invalid array through. */
static int64_t skip_ws(const char *t, int64_t n, int64_t i)
{
    while (i < n && (t[i] == ' ' || t[i] == '\t' || t[i] == '\n' || t[i] == '\r'))
        i++;
    return i;
}

/* The end of the string literal whose body starts at i. */
static int64_t skip_string(const char *t, int64_t n, int64_t i)
{
    while (i < n) {
        if (t[i] == '\\')
            i += 2;
        else if (t[i++] == '"')
            return i;
    }
    return n;
}

/* man * 10^exp10 rounded to the nearest double, or 0 when the fast path
 * cannot be sure (the caller then asks strtod_l).  A port of Go's
 * strconv.eiselLemire64; see Nigel Tao's "The Eisel-Lemire ParseNumberF64
 * Algorithm" for the comments its section names refer to. */
static int eisel_lemire(const phocus_json_scan *s, uint64_t man, int64_t exp10,
                        int neg, double *out)
{
    uint64_t bits;
    if (man == 0) {
        bits = neg ? (uint64_t)1 << 63 : 0;
        memcpy(out, &bits, sizeof bits);
        return 1;
    }
    if (exp10 < s->min_exp10 || exp10 > s->max_exp10)
        return 0;
    const uint64_t *pow = s->powers + 2 * (exp10 - s->min_exp10);
    /* Normalization; (217706 * e) >> 16 is floor(e * log2(10)) here. */
    int clz = __builtin_clzll(man);
    man <<= clz;
    uint64_t exp2 = (uint64_t)(((217706 * exp10) >> 16) + 64 + 1023) - (uint64_t)clz;
    /* Multiplication. */
    unsigned __int128 x = (unsigned __int128)man * pow[0];
    uint64_t x_hi = (uint64_t)(x >> 64), x_lo = (uint64_t)x;
    /* Wider approximation. */
    if ((x_hi & 0x1FF) == 0x1FF && x_lo + man < man) {
        unsigned __int128 y = (unsigned __int128)man * pow[1];
        uint64_t y_hi = (uint64_t)(y >> 64), y_lo = (uint64_t)y;
        uint64_t merged_hi = x_hi, merged_lo = x_lo + y_hi;
        if (merged_lo < x_lo)
            merged_hi++;
        if ((merged_hi & 0x1FF) == 0x1FF && merged_lo + 1 == 0 && y_lo + man < man)
            return 0;
        x_hi = merged_hi;
        x_lo = merged_lo;
    }
    /* Shifting to 54 bits. */
    uint64_t msb = x_hi >> 63;
    uint64_t mantissa = x_hi >> (msb + 9);
    exp2 -= 1 ^ msb;
    /* Half-way ambiguity. */
    if (x_lo == 0 && (x_hi & 0x1FF) == 0 && (mantissa & 3) == 1)
        return 0;
    /* From 54 to 53 bits. */
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >> 53) {
        mantissa >>= 1;
        exp2 += 1;
    }
    /* Subnormal (exp2 <= 0) or infinite (exp2 >= 0x7FF) results. */
    if (exp2 - 1 >= 0x7FF - 1)
        return 0;
    bits = exp2 << 52 | (mantissa & 0x000FFFFFFFFFFFFF);
    if (neg)
        bits |= (uint64_t)1 << 63;
    memcpy(out, &bits, sizeof bits);
    return 1;
}

/* The end of the JSON float literal at i, its value in *out; -1 when the
 * text there is not one (an integer, a malformed number, anything else). */
static int64_t float_literal(const phocus_json_scan *s, int64_t i, double *out)
{
    const char *t = s->text;
    const int64_t n = s->size, start = i;
    uint64_t man = 0;
    int digits = 0, many = 0, neg = 0, is_float = 0;
    int64_t exp10 = 0;
    if (i < n && t[i] == '-') {
        neg = 1;
        i++;
    }
    if (i < n && t[i] == '0') {
        i++;
    } else if (i < n && t[i] >= '1' && t[i] <= '9') {
        for (; i < n && is_digit(t[i]); i++) {
            if (digits < MAX_DIGITS) {
                man = man * 10 + (uint64_t)(t[i] - '0');
                digits++;
            } else {
                many = 1;
            }
        }
    } else {
        return -1;
    }
    if (i < n && t[i] == '.') {
        if (++i >= n || !is_digit(t[i]))
            return -1;
        for (; i < n && is_digit(t[i]); i++) {
            if (man == 0 && t[i] == '0') {
                exp10--;  /* a leading zero: no significant digit */
            } else if (digits < MAX_DIGITS) {
                man = man * 10 + (uint64_t)(t[i] - '0');
                digits++;
                exp10--;
            } else {
                many = 1;
            }
        }
        is_float = 1;
    }
    if (i < n && (t[i] == 'e' || t[i] == 'E')) {
        int eneg = 0;
        int64_t e = 0;
        if (++i < n && (t[i] == '+' || t[i] == '-'))
            eneg = t[i++] == '-';
        if (i >= n || !is_digit(t[i]))
            return -1;
        for (; i < n && is_digit(t[i]); i++)
            if (e < 100000000)  /* far past the table; strtod_l decides */
                e = e * 10 + (t[i] - '0');
        exp10 += eneg ? -e : e;
        is_float = 1;
    }
    /* A float array always continues past its last literal, and that
     * byte keeps strtod_l inside the buffer. */
    if (!is_float || i >= n)
        return -1;
    if (!many && eisel_lemire(s, man, exp10, neg, out))
        return i;
    char *end;
    *out = strtod_l(t + start, &end, (locale_t)s->locale);
    return end == t + i ? i : -1;
}

/* Records the float array starting at a: 1 and *end past its ']' when it
 * is one, 0 when it is not, -1 when a buffer is full. */
static int float_array(phocus_json_scan *s, int64_t a, int64_t *end)
{
    const char *t = s->text;
    const int64_t n = s->size;
    int64_t count = 0, i = skip_ws(t, n, a + 1);
    for (;;) {
        double v;
        int64_t j = float_literal(s, i, &v);
        if (j < 0)
            return 0;
        if (s->n_values + count >= s->max_values)
            return -1;
        s->values[s->n_values + count++] = v;
        i = skip_ws(t, n, j);
        if (i < n && t[i] == ',') {
            i = skip_ws(t, n, i + 1);
        } else if (i < n && t[i] == ']') {
            break;
        } else {
            return 0;
        }
    }
    if (s->n_tags >= s->max_tags)
        return -1;
    s->tags[s->n_tags++] = count;
    s->n_values += count;
    *end = i + 1;
    return 1;
}

/* Records the constant `token` if it starts at i: 1 and *end past it,
 * 0 when it does not start there, -1 when the tag buffer is full. */
static int constant(phocus_json_scan *s, int64_t i, const char *token, int64_t tag,
                    int64_t *end)
{
    const int64_t len = (int64_t)strlen(token);
    if (s->size - i < len || memcmp(s->text + i, token, (size_t)len) != 0)
        return 0;
    if (s->n_tags >= s->max_tags)
        return -1;
    s->tags[s->n_tags++] = tag;
    *end = i + len;
    return 1;
}

/* Appends text[from, to) and then `len` bytes of `tail` to the skeleton. */
static void emit(phocus_json_scan *s, int64_t from, int64_t to, const char *tail,
                 int64_t len)
{
    memcpy(s->skeleton + s->skeleton_size, s->text + from, (size_t)(to - from));
    s->skeleton_size += to - from;
    memcpy(s->skeleton + s->skeleton_size, tail, (size_t)len);
    s->skeleton_size += len;
}

int phocus_json_scan_text(phocus_json_scan *s)
{
    const char *t = s->text;
    const int64_t n = s->size;
    int64_t i = 0, depth = 0, end = 0, copied = 0;
    s->skeleton_size = s->n_tags = s->n_values = 0;
    while (i < n) {
        int found = 0;
        switch (t[i]) {
        case '"':
            i = skip_string(t, n, i + 1);
            continue;
        case '[':
            found = float_array(s, i, &end);
            if (found > 0) {
                emit(s, copied, i, "NaN", 3);  /* "[...]" is 5+ bytes */
                copied = end;
            }
            if (found)
                break;
            /* an ordinary array */
            /* fall through */
        case '{':
            if (++depth > PHOCUS_JSON_MAX_DEPTH)
                return PHOCUS_JSON_TOO_DEEP;
            break;
        case ']':
        case '}':
            depth -= depth > 0;
            break;
        case 'N':
            found = constant(s, i, "NaN", PHOCUS_JSON_NAN, &end);
            break;
        case 'I':
            found = constant(s, i, "Infinity", PHOCUS_JSON_INF, &end);
            break;
        case '-':
            found = constant(s, i, "-Infinity", PHOCUS_JSON_NEG_INF, &end);
            break;
        }
        if (found < 0)
            return PHOCUS_JSON_FULL;
        i = found ? end : i + 1;
    }
    emit(s, copied, n, "", 0);
    return PHOCUS_JSON_DONE;
}
