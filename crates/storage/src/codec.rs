//! Binary codec for [`Value`]s.
//!
//! An artifact is one [`frame`]-sealed
//! [`FrameKind::Artifact`] frame (the same versioned header, length
//! field, and CRC-32 trailer the catalog journal uses; `prev_hash` is
//! [`GENESIS_HASH`](crate::frame::GENESIS_HASH) — artifacts stand
//! alone). The payload is the value kind byte followed by varint-framed
//! fields: integers are varint-encoded (zig-zag for signed), floats are
//! IEEE-754 little-endian bit patterns (exact round trip, NaN-safe). A run
//! of floats (a dense vector, a sparse vector's values, a model's weights)
//! is length-checked once and copied in bulk, 8 bytes at a time, in each
//! direction. A 3 MB dense-f64 artifact decodes at ≈ 1.5 GB/s and encodes
//! at ≈ 1.8 GB/s on a 2-vCPU Xeon VM, 60–75 % of it the CRC-32.
//! Text-heavy payloads decode at ≈ 60–400 MB/s, bound by an allocation
//! per string, not the checksum.
//! Decoding enforces exact-length consumption at both levels: the frame
//! must span the input exactly, and the payload must be fully consumed.
//! The format is self-contained per artifact: no cross-file references,
//! so a catalog entry can be loaded in a fresh process — exactly what
//! cross-iteration reuse needs.

use crate::frame::{self, FrameError, FrameKind};
use helix_common::{HelixError, Result};
use helix_data::{
    BucketizerModel, CentroidModel, DataCollection, EmbeddingModel, Example, ExampleBatch,
    FeatureBundle, FeatureSpace, FeatureVector, FieldValue, IndexerModel, LinearModel, Model,
    NaiveBayesModel, Record, RecordBatch, Scalar, ScalerModel, Schema, SemanticUnit, Split,
    TransformModel, UnitBatch, Value, ValueKind,
};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Low-level writer / reader
// ---------------------------------------------------------------------

/// Where the field writers put their bytes: a [`Writer`] keeps them, a
/// [`Counter`] only counts them. Every `put_*` is written once, here, over
/// the two primitives, so [`encoded_len`] cannot drift from
/// [`encode_value`].
trait Sink {
    fn put_u8(&mut self, v: u8);

    fn put_raw(&mut self, b: &[u8]);

    /// A run of floats, each as its 8 little-endian bytes, with no length
    /// prefix.
    fn put_f64_run(&mut self, vs: &[f64]);

    fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.put_u8(byte);
                return;
            }
            self.put_u8(byte | 0x80);
        }
    }

    fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    fn put_f64(&mut self, v: f64) {
        self.put_raw(&v.to_bits().to_le_bytes());
    }

    fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.put_raw(b);
    }

    fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    fn put_opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.put_u8(0),
            Some(s) => {
                self.put_u8(1);
                self.put_str(s);
            }
        }
    }

    fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.put_u8(0),
            Some(v) => {
                self.put_u8(1);
                self.put_f64(v);
            }
        }
    }

    fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_varint(vs.len() as u64);
        self.put_f64_run(vs);
    }
}

/// Append-only byte sink with varint framing.
#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Finished bytes.
    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Sink for Writer {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Dense vectors and model weight matrices dominate artifact payloads:
    /// grow the buffer once for the whole run, then fill it 8 bytes at a
    /// time, with no per-value capacity check.
    fn put_f64_run(&mut self, vs: &[f64]) {
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * 8, 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            out.copy_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

/// Length-only sink behind [`encoded_len`].
#[derive(Default)]
struct Counter {
    len: u64,
}

impl Sink for Counter {
    fn put_u8(&mut self, _v: u8) {
        self.len += 1;
    }

    fn put_raw(&mut self, b: &[u8]) {
        self.len += b.len() as u64;
    }

    fn put_f64_run(&mut self, vs: &[f64]) {
        self.len += 8 * vs.len() as u64;
    }
}

/// Cursor over encoded bytes with bounds and format checking.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn get_u8(&mut self) -> Result<u8> {
        let b =
            *self.buf.get(self.pos).ok_or_else(|| HelixError::codec("unexpected end of frame"))?;
        self.pos += 1;
        Ok(b)
    }

    fn get_varint(&mut self) -> Result<u64> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(HelixError::codec("varint overflow"));
            }
            out |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    fn get_zigzag(&mut self) -> Result<i64> {
        let raw = self.get_varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    fn get_f64(&mut self) -> Result<f64> {
        if self.pos + 8 > self.buf.len() {
            return Err(HelixError::codec("truncated f64"));
        }
        let bits = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(f64::from_bits(bits))
    }

    fn get_len(&mut self, elem_floor: usize) -> Result<usize> {
        // Compare in u64 BEFORE any usize cast: on a 32-bit target a
        // corrupt declared length of 2^32 + k would otherwise truncate to
        // k and decode garbage as a valid shorter field.
        let len = self.get_varint()?;
        // Defensive bound: a declared length can never exceed the number of
        // elements that could possibly fit in the remaining bytes.
        let remaining = (self.buf.len() - self.pos) as u64;
        if elem_floor > 0 && len > remaining / elem_floor as u64 + 1 {
            return Err(HelixError::codec(format!(
                "declared length {len} exceeds remaining frame ({remaining} bytes)"
            )));
        }
        if len > usize::MAX as u64 {
            return Err(HelixError::codec(format!(
                "declared length {len} exceeds the address space"
            )));
        }
        Ok(len as usize)
    }

    fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_len(1)?;
        if self.pos + len > self.buf.len() {
            return Err(HelixError::codec("truncated byte field"));
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    fn get_str(&mut self) -> Result<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| HelixError::codec("invalid utf-8"))
    }

    fn get_opt_str(&mut self) -> Result<Option<String>> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_str()?)),
            t => Err(HelixError::codec(format!("bad option tag {t}"))),
        }
    }

    fn get_opt_f64(&mut self) -> Result<Option<f64>> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_f64()?)),
            t => Err(HelixError::codec(format!("bad option tag {t}"))),
        }
    }

    fn get_f64_vec(&mut self) -> Result<Vec<f64>> {
        let len = self.get_len(8)?;
        self.get_f64_run(len)
    }

    /// `n` floats written by `put_f64_run`. The run's byte length is
    /// checked once against the bytes left, then the floats are copied out
    /// 8 bytes at a time.
    fn get_f64_run(&mut self, n: usize) -> Result<Vec<f64>> {
        let end = n
            .checked_mul(8)
            .and_then(|bytes| self.pos.checked_add(bytes))
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| HelixError::codec(format!("truncated run of {n} f64s")))?;
        let out = self.buf[self.pos..end]
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk"))))
            .collect();
        self.pos = end;
        Ok(out)
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------
// Field-level encode/decode
// ---------------------------------------------------------------------

fn put_split<S: Sink>(w: &mut S, s: Split) {
    w.put_u8(s.to_byte());
}

fn get_split(r: &mut Reader) -> Result<Split> {
    let b = r.get_u8()?;
    Split::from_byte(b).ok_or_else(|| HelixError::codec(format!("bad split byte {b}")))
}

fn put_field_value<S: Sink>(w: &mut S, v: &FieldValue) {
    match v {
        FieldValue::Null => w.put_u8(0),
        FieldValue::Int(i) => {
            w.put_u8(1);
            w.put_zigzag(*i);
        }
        FieldValue::Float(f) => {
            w.put_u8(2);
            w.put_f64(*f);
        }
        FieldValue::Text(s) => {
            w.put_u8(3);
            w.put_str(s);
        }
    }
}

fn get_field_value(r: &mut Reader) -> Result<FieldValue> {
    Ok(match r.get_u8()? {
        0 => FieldValue::Null,
        1 => FieldValue::Int(r.get_zigzag()?),
        2 => FieldValue::Float(r.get_f64()?),
        3 => FieldValue::Text(r.get_str()?),
        t => return Err(HelixError::codec(format!("bad field-value tag {t}"))),
    })
}

fn put_feature_vector<S: Sink>(w: &mut S, v: &FeatureVector) {
    match v {
        FeatureVector::Dense(d) => {
            w.put_u8(0);
            w.put_f64_slice(d);
        }
        FeatureVector::Sparse { dim, indices, values } => {
            w.put_u8(1);
            w.put_varint(*dim as u64);
            w.put_varint(indices.len() as u64);
            for i in indices {
                w.put_varint(*i as u64);
            }
            w.put_f64_run(values);
        }
    }
}

fn get_feature_vector(r: &mut Reader) -> Result<FeatureVector> {
    Ok(match r.get_u8()? {
        0 => FeatureVector::Dense(r.get_f64_vec()?),
        1 => {
            let dim = r.get_varint()? as u32;
            let nnz = r.get_len(9)?;
            let mut indices = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                indices.push(r.get_varint()? as u32);
            }
            let values = r.get_f64_run(nnz)?;
            FeatureVector::Sparse { dim, indices, values }
        }
        t => return Err(HelixError::codec(format!("bad feature-vector tag {t}"))),
    })
}

fn put_bundle<S: Sink>(w: &mut S, b: &FeatureBundle) {
    match b {
        FeatureBundle::Categorical(kv) => {
            w.put_u8(0);
            w.put_varint(kv.len() as u64);
            for (k, v) in kv {
                w.put_str(k);
                w.put_str(v);
            }
        }
        FeatureBundle::Numeric(kv) => {
            w.put_u8(1);
            w.put_varint(kv.len() as u64);
            for (k, v) in kv {
                w.put_str(k);
                w.put_f64(*v);
            }
        }
        FeatureBundle::Vector(v) => {
            w.put_u8(2);
            put_feature_vector(w, v);
        }
        FeatureBundle::Tokens(ts) => {
            w.put_u8(3);
            w.put_varint(ts.len() as u64);
            for t in ts {
                w.put_str(t);
            }
        }
        FeatureBundle::Empty => w.put_u8(4),
    }
}

fn get_bundle(r: &mut Reader) -> Result<FeatureBundle> {
    Ok(match r.get_u8()? {
        0 => {
            let n = r.get_len(2)?;
            let mut kv = Vec::with_capacity(n);
            for _ in 0..n {
                kv.push((r.get_str()?, r.get_str()?));
            }
            FeatureBundle::Categorical(kv)
        }
        1 => {
            let n = r.get_len(9)?;
            let mut kv = Vec::with_capacity(n);
            for _ in 0..n {
                kv.push((r.get_str()?, r.get_f64()?));
            }
            FeatureBundle::Numeric(kv)
        }
        2 => FeatureBundle::Vector(get_feature_vector(r)?),
        3 => {
            let n = r.get_len(1)?;
            let mut ts = Vec::with_capacity(n);
            for _ in 0..n {
                ts.push(r.get_str()?);
            }
            FeatureBundle::Tokens(ts)
        }
        4 => FeatureBundle::Empty,
        t => return Err(HelixError::codec(format!("bad bundle tag {t}"))),
    })
}

fn put_records<S: Sink>(w: &mut S, batch: &RecordBatch) {
    w.put_varint(batch.schema.arity() as u64);
    for c in batch.schema.columns() {
        w.put_str(c);
    }
    w.put_varint(batch.rows.len() as u64);
    for row in &batch.rows {
        put_split(w, row.split);
        for v in &row.values {
            put_field_value(w, v);
        }
    }
}

fn get_records(r: &mut Reader) -> Result<RecordBatch> {
    let arity = r.get_len(1)?;
    let mut cols = Vec::with_capacity(arity);
    for _ in 0..arity {
        cols.push(r.get_str()?);
    }
    let schema = Schema::new(cols);
    let n = r.get_len(1)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let split = get_split(r)?;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(get_field_value(r)?);
        }
        rows.push(Record { values, split });
    }
    RecordBatch::new(schema, rows)
}

fn put_units<S: Sink>(w: &mut S, batch: &UnitBatch) {
    w.put_varint(batch.units.len() as u64);
    for u in &batch.units {
        w.put_varint(u.origin as u64);
        put_split(w, u.split);
        put_bundle(w, &u.features);
        w.put_opt_str(u.key.as_deref());
    }
}

fn get_units(r: &mut Reader) -> Result<UnitBatch> {
    let n = r.get_len(3)?;
    let mut units = Vec::with_capacity(n);
    for _ in 0..n {
        let origin = r.get_varint()? as u32;
        let split = get_split(r)?;
        let features = get_bundle(r)?;
        let key = r.get_opt_str()?;
        units.push(SemanticUnit { origin, split, features, key });
    }
    Ok(UnitBatch::new(units))
}

fn put_examples<S: Sink>(w: &mut S, batch: &ExampleBatch) {
    w.put_varint(batch.space.dim() as u64);
    for (name, owner) in batch.space.entries() {
        w.put_str(name);
        w.put_varint(owner as u64);
    }
    w.put_varint(batch.examples.len() as u64);
    for e in &batch.examples {
        put_feature_vector(w, &e.features);
        w.put_opt_f64(e.label);
        put_split(w, e.split);
        w.put_opt_f64(e.prediction);
        w.put_opt_str(e.tag.as_deref());
    }
}

fn get_examples(r: &mut Reader) -> Result<ExampleBatch> {
    let n_feat = r.get_len(2)?;
    let mut entries = Vec::with_capacity(n_feat);
    for _ in 0..n_feat {
        entries.push((r.get_str()?, r.get_varint()? as u32));
    }
    let space = Arc::new(FeatureSpace::from_entries(entries));
    let n = r.get_len(4)?;
    let mut examples = Vec::with_capacity(n);
    for _ in 0..n {
        let features = get_feature_vector(r)?;
        let label = r.get_opt_f64()?;
        let split = get_split(r)?;
        let prediction = r.get_opt_f64()?;
        let tag = r.get_opt_str()?;
        examples.push(Example { features, label, split, prediction, tag });
    }
    Ok(ExampleBatch::new(space, examples))
}

/// A `token → row` map, sorted by token so artifacts are byte-stable.
fn put_vocab<S: Sink>(w: &mut S, vocab: &HashMap<String, u32>) {
    w.put_varint(vocab.len() as u64);
    let mut entries: Vec<(&String, &u32)> = vocab.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    for (token, row) in entries {
        w.put_str(token);
        w.put_varint(*row as u64);
    }
}

fn put_model<S: Sink>(w: &mut S, model: &Model) {
    match model {
        Model::Linear(m) => {
            w.put_u8(0);
            w.put_varint(m.dim as u64);
            w.put_varint(m.weights.len() as u64);
            for ws in &m.weights {
                w.put_f64_slice(ws);
            }
            w.put_f64_slice(&m.bias);
        }
        Model::Centroids(m) => {
            w.put_u8(1);
            w.put_varint(m.dim as u64);
            w.put_f64(m.inertia);
            w.put_varint(m.centroids.len() as u64);
            for c in &m.centroids {
                w.put_f64_slice(c);
            }
        }
        Model::Embeddings(m) => {
            w.put_u8(2);
            w.put_varint(m.dim as u64);
            put_vocab(w, &m.vocab);
            w.put_f64_slice(&m.vectors);
        }
        Model::NaiveBayes(m) => {
            w.put_u8(3);
            w.put_varint(m.dim as u64);
            w.put_f64_slice(&m.log_priors);
            w.put_f64_slice(&m.log_likelihoods);
        }
        Model::Transform(t) => {
            w.put_u8(4);
            match t {
                TransformModel::Scaler(s) => {
                    w.put_u8(0);
                    w.put_f64_slice(&s.means);
                    w.put_f64_slice(&s.stds);
                }
                TransformModel::Bucketizer(b) => {
                    w.put_u8(1);
                    w.put_f64_slice(&b.boundaries);
                }
                TransformModel::Indexer(i) => {
                    w.put_u8(2);
                    put_vocab(w, &i.vocab);
                }
                TransformModel::RandomFourier { projection, offsets, dim_in, dim_out } => {
                    w.put_u8(3);
                    w.put_varint(*dim_in as u64);
                    w.put_varint(*dim_out as u64);
                    w.put_f64_slice(projection);
                    w.put_f64_slice(offsets);
                }
            }
        }
    }
}

fn get_model(r: &mut Reader) -> Result<Model> {
    Ok(match r.get_u8()? {
        0 => {
            let dim = r.get_varint()? as u32;
            let classes = r.get_len(2)?;
            let mut weights = Vec::with_capacity(classes);
            for _ in 0..classes {
                weights.push(r.get_f64_vec()?);
            }
            let bias = r.get_f64_vec()?;
            Model::Linear(LinearModel { weights, bias, dim })
        }
        1 => {
            let dim = r.get_varint()? as u32;
            let inertia = r.get_f64()?;
            let k = r.get_len(2)?;
            let mut centroids = Vec::with_capacity(k);
            for _ in 0..k {
                centroids.push(r.get_f64_vec()?);
            }
            Model::Centroids(CentroidModel { centroids, dim, inertia })
        }
        2 => {
            let dim = r.get_varint()? as u32;
            let n = r.get_len(2)?;
            let mut vocab = HashMap::with_capacity(n);
            for _ in 0..n {
                let token = r.get_str()?;
                let row = r.get_varint()? as u32;
                vocab.insert(token, row);
            }
            let vectors = r.get_f64_vec()?;
            Model::Embeddings(EmbeddingModel { vocab, vectors, dim })
        }
        3 => {
            let dim = r.get_varint()? as u32;
            let log_priors = r.get_f64_vec()?;
            let log_likelihoods = r.get_f64_vec()?;
            Model::NaiveBayes(NaiveBayesModel { log_priors, log_likelihoods, dim })
        }
        4 => Model::Transform(match r.get_u8()? {
            0 => TransformModel::Scaler(ScalerModel {
                means: r.get_f64_vec()?,
                stds: r.get_f64_vec()?,
            }),
            1 => TransformModel::Bucketizer(BucketizerModel { boundaries: r.get_f64_vec()? }),
            2 => {
                let n = r.get_len(2)?;
                let mut vocab = HashMap::with_capacity(n);
                for _ in 0..n {
                    let k = r.get_str()?;
                    let v = r.get_varint()? as u32;
                    vocab.insert(k, v);
                }
                TransformModel::Indexer(IndexerModel { vocab })
            }
            3 => {
                let dim_in = r.get_varint()? as u32;
                let dim_out = r.get_varint()? as u32;
                let projection = r.get_f64_vec()?;
                let offsets = r.get_f64_vec()?;
                TransformModel::RandomFourier { projection, offsets, dim_in, dim_out }
            }
            t => return Err(HelixError::codec(format!("bad transform tag {t}"))),
        }),
        t => return Err(HelixError::codec(format!("bad model tag {t}"))),
    })
}

fn put_scalar<S: Sink>(w: &mut S, s: &Scalar) {
    match s {
        Scalar::F64(v) => {
            w.put_u8(0);
            w.put_f64(*v);
        }
        Scalar::I64(v) => {
            w.put_u8(1);
            w.put_zigzag(*v);
        }
        Scalar::Text(t) => {
            w.put_u8(2);
            w.put_str(t);
        }
        Scalar::Metrics(m) => {
            w.put_u8(3);
            w.put_varint(m.len() as u64);
            for (k, v) in m {
                w.put_str(k);
                w.put_f64(*v);
            }
        }
    }
}

fn get_scalar(r: &mut Reader) -> Result<Scalar> {
    Ok(match r.get_u8()? {
        0 => Scalar::F64(r.get_f64()?),
        1 => Scalar::I64(r.get_zigzag()?),
        2 => Scalar::Text(r.get_str()?),
        3 => {
            let n = r.get_len(9)?;
            let mut m = Vec::with_capacity(n);
            for _ in 0..n {
                m.push((r.get_str()?, r.get_f64()?));
            }
            Scalar::Metrics(m)
        }
        t => return Err(HelixError::codec(format!("bad scalar tag {t}"))),
    })
}

// ---------------------------------------------------------------------
// Top-level frame
// ---------------------------------------------------------------------

/// The artifact payload: the value kind byte, then its fields.
fn put_value<S: Sink>(w: &mut S, value: &Value) {
    w.put_u8(value.kind().to_byte());
    match value {
        Value::Collection(DataCollection::Records(b)) => put_records(w, b),
        Value::Collection(DataCollection::Units(b)) => put_units(w, b),
        Value::Collection(DataCollection::Examples(b)) => put_examples(w, b),
        Value::Model(m) => put_model(w, m),
        Value::Scalar(s) => put_scalar(w, s),
    }
}

/// Encode a value into one self-contained, sealed [`FrameKind::Artifact`]
/// frame.
pub fn encode_value(value: &Value) -> Vec<u8> {
    // `byte_size` is a cheap in-memory estimate (no encoding work). It is
    // close to the encoded size for float-dominated payloads but up to
    // ≈ 5× above it for text (a `String` header per cell); an oversized
    // hint only reserves address space, an undersized one costs at most
    // one reallocation.
    use helix_data::ByteSized;
    let hint = (value.byte_size() as usize).saturating_add(64);
    let mut w = Writer { buf: frame::begin_frame(FrameKind::Artifact, hint) };
    put_value(&mut w, value);
    frame::seal_frame(w.into_bytes(), frame::GENESIS_HASH)
}

/// `encode_value(value).len()`, computed without encoding: the same field
/// writers run over a length-only sink, so no output buffer is built and
/// the two cannot disagree. This is the size an artifact will occupy —
/// the bytes its load is priced on.
pub fn encoded_len(value: &Value) -> u64 {
    let mut counter = Counter::default();
    put_value(&mut counter, value);
    (frame::MIN_FRAME_LEN as u64) + counter.len
}

/// Decode a frame produced by [`encode_value`], verifying — in this
/// order, so the error names the actual problem — magic, version, frame
/// truncation, CRC, and exact-length consumption. A non-HELIX input
/// reports *bad magic*, never a misleading checksum mismatch; the three
/// corruption categories (`not a HELIX frame` / `truncated` /
/// `checksum mismatch`) stay distinct so callers (and the journal
/// scanner, which shares the parser) can act on them.
pub fn decode_value(bytes: &[u8]) -> Result<Value> {
    let parsed = frame::parse_frame(bytes).map_err(|e| match e {
        FrameError::NotAFrame => HelixError::codec("bad magic (not a HELIX artifact)"),
        FrameError::Truncated => HelixError::codec("truncated artifact frame"),
        FrameError::Corrupt => HelixError::codec("checksum mismatch (corrupt artifact)"),
        other => HelixError::from(other),
    })?;
    // Exact-length consumption, frame level: bytes beyond the sealed
    // frame mean the file was appended to or spliced.
    if parsed.len != bytes.len() {
        return Err(HelixError::codec("trailing bytes after artifact frame"));
    }
    if parsed.kind != FrameKind::Artifact {
        return Err(HelixError::codec(format!(
            "not an artifact (frame kind {:#04x} is a catalog-journal record)",
            parsed.kind.to_byte()
        )));
    }
    let mut r = Reader::new(parsed.payload);
    let kind_byte = r.get_u8()?;
    let kind = ValueKind::from_byte(kind_byte)
        .ok_or_else(|| HelixError::codec(format!("bad value kind {kind_byte}")))?;
    let value = match kind {
        ValueKind::Records => Value::records(get_records(&mut r)?),
        ValueKind::Units => Value::units(get_units(&mut r)?),
        ValueKind::Examples => Value::examples(get_examples(&mut r)?),
        ValueKind::Model => Value::Model(get_model(&mut r)?),
        ValueKind::Scalar => Value::Scalar(get_scalar(&mut r)?),
    };
    if !r.finished() {
        return Err(HelixError::codec("trailing bytes after payload"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_common::crc32::crc32;

    fn sample_records() -> Value {
        let schema = Schema::new(["age", "education", "target"]);
        let batch = RecordBatch::new(
            schema,
            vec![
                Record::train(vec![
                    FieldValue::Int(39),
                    FieldValue::Text("Bachelors".into()),
                    FieldValue::Int(0),
                ]),
                Record::test(vec![FieldValue::Float(50.5), FieldValue::Null, FieldValue::Int(1)]),
            ],
        )
        .unwrap();
        Value::records(batch)
    }

    fn roundtrip(v: &Value) -> Value {
        let bytes = encode_value(v);
        assert_eq!(encoded_len(v), bytes.len() as u64, "encoded_len must equal encode_value");
        decode_value(&bytes).expect("roundtrip")
    }

    #[test]
    fn records_roundtrip() {
        let v = sample_records();
        let back = roundtrip(&v);
        let (a, b) = (v.as_collection().unwrap(), back.as_collection().unwrap());
        assert_eq!(a.as_records().unwrap(), b.as_records().unwrap());
    }

    #[test]
    fn units_roundtrip() {
        let batch = UnitBatch::new(vec![
            SemanticUnit::new(
                0,
                Split::Train,
                FeatureBundle::Categorical(vec![("edu".into(), "BS".into())]),
            ),
            SemanticUnit::keyed(
                1,
                Split::Test,
                FeatureBundle::Tokens(vec!["gene".into(), "tp53".into()]),
                "tp53",
            ),
            SemanticUnit::new(2, Split::Train, FeatureBundle::Numeric(vec![("age".into(), 3.5)])),
            SemanticUnit::new(
                3,
                Split::Train,
                FeatureBundle::Vector(FeatureVector::sparse_from_pairs(5, vec![(1, 2.0)])),
            ),
            SemanticUnit::new(4, Split::Test, FeatureBundle::Empty),
        ]);
        let v = Value::units(batch);
        let back = roundtrip(&v);
        assert_eq!(
            v.as_collection().unwrap().as_units().unwrap(),
            back.as_collection().unwrap().as_units().unwrap()
        );
    }

    #[test]
    fn examples_roundtrip_preserves_space_and_provenance() {
        let mut space = FeatureSpace::new();
        space.intern("edu=BS", 4);
        space.intern("ageBucket_3", 7);
        let batch = ExampleBatch::new(
            Arc::new(space),
            vec![
                Example {
                    features: FeatureVector::sparse_from_pairs(2, vec![(0, 1.0)]),
                    label: Some(1.0),
                    split: Split::Train,
                    prediction: Some(0.83),
                    tag: Some("row-0".into()),
                },
                Example::new(FeatureVector::Dense(vec![0.5, -2.0]), None, Split::Test),
            ],
        );
        let v = Value::examples(batch);
        let back = roundtrip(&v);
        let decoded = back.as_collection().unwrap().as_examples().unwrap();
        assert_eq!(decoded.space.dim(), 2);
        assert_eq!(decoded.space.owner(1), Some(7));
        assert_eq!(decoded.space.name(0), Some("edu=BS"));
        assert_eq!(decoded.examples[0].prediction, Some(0.83));
        assert_eq!(decoded.examples[0].tag.as_deref(), Some("row-0"));
        assert_eq!(decoded.examples[1].label, None);
    }

    #[test]
    fn all_model_variants_roundtrip() {
        let models = vec![
            Model::Linear(LinearModel {
                weights: vec![vec![0.1, -0.2], vec![0.3, 0.4]],
                bias: vec![0.01, -0.02],
                dim: 2,
            }),
            Model::Centroids(CentroidModel {
                centroids: vec![vec![1.0, 2.0], vec![-1.0, 0.0]],
                dim: 2,
                inertia: 12.5,
            }),
            Model::Embeddings(EmbeddingModel {
                vocab: [("brca1".to_string(), 0u32), ("tp53".to_string(), 1u32)]
                    .into_iter()
                    .collect(),
                vectors: vec![0.1, 0.2, 0.3, 0.4],
                dim: 2,
            }),
            Model::NaiveBayes(NaiveBayesModel {
                log_priors: vec![-0.7, -0.7],
                log_likelihoods: vec![-1.0, -2.0, -3.0, -4.0],
                dim: 2,
            }),
            Model::Transform(TransformModel::Scaler(ScalerModel {
                means: vec![1.0],
                stds: vec![2.0],
            })),
            Model::Transform(TransformModel::Bucketizer(BucketizerModel {
                boundaries: vec![10.0, 20.0],
            })),
            Model::Transform(TransformModel::Indexer(IndexerModel {
                vocab: [("a".to_string(), 0u32)].into_iter().collect(),
            })),
            Model::Transform(TransformModel::RandomFourier {
                projection: vec![0.5; 6],
                offsets: vec![0.1, 0.2],
                dim_in: 3,
                dim_out: 2,
            }),
        ];
        for m in models {
            let v = Value::Model(m);
            let back = roundtrip(&v);
            assert_eq!(v.as_model().unwrap(), back.as_model().unwrap());
        }
    }

    #[test]
    fn scalar_variants_roundtrip() {
        for s in [
            Scalar::F64(0.913),
            Scalar::F64(f64::NEG_INFINITY),
            Scalar::I64(-42),
            Scalar::Text("accuracy report".into()),
            Scalar::Metrics(vec![("acc".into(), 0.9), ("f1".into(), 0.8)]),
        ] {
            let v = Value::Scalar(s);
            let back = roundtrip(&v);
            assert_eq!(v.as_scalar().unwrap(), back.as_scalar().unwrap());
        }
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let v = Value::Scalar(Scalar::F64(f64::NAN));
        let back = roundtrip(&v);
        match back.as_scalar().unwrap() {
            Scalar::F64(f) => assert!(f.is_nan()),
            _ => panic!("wrong scalar"),
        }
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = encode_value(&sample_records());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = decode_value(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_value(&sample_records());
        for cut in [0, 3, 8, bytes.len() - 5] {
            assert!(decode_value(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_magic_and_version_detected() {
        let mut bytes = encode_value(&Value::Scalar(Scalar::I64(7)));
        bytes[0] = b'Z';
        // Re-stamp CRC so only the magic check can fire.
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(decode_value(&bytes).unwrap_err().to_string().contains("magic"));

        let mut bytes = encode_value(&Value::Scalar(Scalar::I64(7)));
        bytes[4] = 99; // version
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(decode_value(&bytes).unwrap_err().to_string().contains("version"));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = encode_value(&Value::Scalar(Scalar::I64(7)));
        // Insert a junk byte before the CRC and restamp: payload now has
        // trailing content.
        let insert_at = bytes.len() - 4;
        bytes.insert(insert_at, 0xAB);
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(decode_value(&bytes).is_err());
    }

    #[test]
    fn non_helix_file_reports_bad_magic_not_corruption() {
        // Feeding a random non-Helix file must say "not ours", never the
        // misleading "checksum mismatch" the old decoder led with.
        for junk in [&b"PK\x03\x04zip archive bytes"[..], b"{\"json\": true}", b"\x00\x01\x02"] {
            let err = decode_value(junk).unwrap_err().to_string();
            assert!(err.contains("magic"), "want magic error, got: {err}");
            assert!(!err.contains("checksum"), "must not claim corruption: {err}");
        }
    }

    #[test]
    fn error_categories_stay_distinct() {
        let good = encode_value(&Value::Scalar(Scalar::I64(7)));
        // Truncated: the frame header declares more than is present.
        let err = decode_value(&good[..good.len() - 3]).unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");
        // Corrupt: correctly delimited, CRC broken.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        let err = decode_value(&bad).unwrap_err().to_string();
        assert!(err.contains("checksum"), "{err}");
        // Not an artifact: a CRC-valid *journal* frame is refused by kind.
        let mut journal = frame::begin_frame(FrameKind::Upsert, 2);
        journal.extend_from_slice(b"{}");
        let journal = frame::seal_frame(journal, frame::GENESIS_HASH);
        let err = decode_value(&journal).unwrap_err().to_string();
        assert!(err.contains("not an artifact"), "{err}");
    }

    #[test]
    fn declared_length_past_u32_boundary_is_rejected_not_truncated() {
        // Regression: `get_len` used to cast the declared u64 to usize
        // BEFORE bounds-checking — on a 32-bit target 2^32 + 3 truncates
        // to 3 and decodes garbage as a valid shorter field. The bound
        // must be checked in u64.
        let mut w = Writer::default();
        w.put_varint((1u64 << 32) + 3);
        w.buf.extend_from_slice(b"abc");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = r.get_bytes().unwrap_err().to_string();
        assert!(err.contains("exceeds"), "a truncating cast would have returned \"abc\": {err}");
    }

    /// `n` floats cycling through the bit patterns a bulk copy could
    /// disturb: NaNs with payloads (quiet, signalling, negative), ±0.0,
    /// subnormals, ±∞ and ordinary values.
    fn awkward_f64s(n: usize) -> Vec<f64> {
        let awkward = [
            f64::from_bits(0x7FF8_0000_0000_1234),
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_DEAD_BEEF_0001),
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.5e-3,
        ];
        (0..n).map(|i| awkward[i % awkward.len()]).collect()
    }

    fn bits(vs: &[f64]) -> Vec<u64> {
        vs.iter().map(|v| v.to_bits()).collect()
    }

    /// Reads the f64 runs back out of a value.
    type Runs = fn(&Value) -> Vec<Vec<f64>>;

    /// Every kind of f64 run the codec writes, each holding `vs`, paired
    /// with the runs read back out of a value of that kind.
    fn f64_run_values(vs: &[f64]) -> Vec<(Value, Runs)> {
        let examples = |features: FeatureVector| {
            Value::examples(ExampleBatch::new(
                Arc::new(FeatureSpace::new()),
                vec![Example::new(features, Some(1.0), Split::Train)],
            ))
        };
        let n = vs.len() as u32;
        vec![
            (examples(FeatureVector::Dense(vs.to_vec())), |v| {
                match &v.as_collection().unwrap().as_examples().unwrap().examples[0].features {
                    FeatureVector::Dense(d) => vec![d.clone()],
                    other => panic!("dense vector decoded as {other:?}"),
                }
            }),
            (
                examples(FeatureVector::Sparse {
                    dim: 2 * n + 1,
                    indices: (0..n).map(|i| 2 * i).collect(),
                    values: vs.to_vec(),
                }),
                |v| match &v.as_collection().unwrap().as_examples().unwrap().examples[0].features {
                    FeatureVector::Sparse { values, .. } => vec![values.clone()],
                    other => panic!("sparse vector decoded as {other:?}"),
                },
            ),
            (
                Value::Model(Model::Linear(LinearModel {
                    weights: vec![vs.to_vec(), vs.iter().rev().copied().collect()],
                    bias: vs.to_vec(),
                    dim: n,
                })),
                |v| match v.as_model().unwrap() {
                    Model::Linear(m) => {
                        let mut runs = m.weights.clone();
                        runs.push(m.bias.clone());
                        runs
                    }
                    other => panic!("linear model decoded as {other:?}"),
                },
            ),
            (
                Value::Model(Model::Embeddings(EmbeddingModel {
                    vocab: [("tp53".to_string(), 0u32)].into_iter().collect(),
                    vectors: vs.to_vec(),
                    dim: n,
                })),
                |v| match v.as_model().unwrap() {
                    Model::Embeddings(m) => vec![m.vectors.clone()],
                    other => panic!("embeddings decoded as {other:?}"),
                },
            ),
            (
                Value::Model(Model::Transform(TransformModel::RandomFourier {
                    projection: vs.to_vec(),
                    offsets: vs.iter().rev().copied().collect(),
                    dim_in: 1,
                    dim_out: n,
                })),
                |v| match v.as_model().unwrap() {
                    Model::Transform(TransformModel::RandomFourier {
                        projection, offsets, ..
                    }) => vec![projection.clone(), offsets.clone()],
                    other => panic!("random Fourier features decoded as {other:?}"),
                },
            ),
        ]
    }

    #[test]
    fn f64_runs_are_bit_identical_after_a_round_trip_at_every_length() {
        for n in 0..=17 {
            for (value, runs) in f64_run_values(&awkward_f64s(n)) {
                let back = roundtrip(&value);
                let want: Vec<Vec<u64>> = runs(&value).iter().map(|r| bits(r)).collect();
                let got: Vec<Vec<u64>> = runs(&back).iter().map(|r| bits(r)).collect();
                assert_eq!(got, want, "length {n}, {:?}", value.kind());
            }
        }
    }

    #[test]
    fn dense_run_longer_than_the_bytes_left_is_a_codec_error() {
        // `get_len(8)` allows one element of slack past the bytes left, so
        // a run declared one float longer than its bytes passes it; the
        // run's own length check must refuse it.
        for n in 0..=17 {
            let mut w = Writer::default();
            w.put_u8(ValueKind::Examples.to_byte());
            w.put_varint(0); // an empty feature space
            w.put_varint(1); // one example
            w.put_u8(0); // dense
            w.put_varint(n as u64 + 1);
            w.put_f64_run(&awkward_f64s(n));
            let mut frame = frame::begin_frame(FrameKind::Artifact, 0);
            frame.extend_from_slice(&w.into_bytes());
            let bytes = frame::seal_frame(frame, frame::GENESIS_HASH);
            match decode_value(&bytes) {
                Err(HelixError::Codec { detail }) => {
                    assert!(detail.contains("truncated run"), "length {n}: {detail}")
                }
                other => panic!("length {n}: want a codec error, got {other:?}"),
            }
        }
    }

    #[test]
    fn varint_boundaries() {
        let mut w = Writer::default();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        assert!(r.finished());
        // The length-only sink counts the same bytes.
        for (v, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX as u64, 5),
            (u64::MAX, 10),
        ] {
            let mut c = Counter::default();
            c.put_varint(v);
            assert_eq!(c.len, len, "varint length of {v}");
        }
    }

    #[test]
    fn zigzag_boundaries() {
        let mut w = Writer::default();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456] {
            w.put_zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456] {
            assert_eq!(r.get_zigzag().unwrap(), v);
        }
    }
}
