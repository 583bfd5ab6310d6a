//! Weight (de)serialization in a small self-describing binary format.
//!
//! The sanctioned dependency list has no serde *format* crate, so weights
//! use a purpose-built layout:
//!
//! ```text
//! magic   b"LGW1"
//! u32     number of parameter tensors (little-endian, as all fields)
//! repeat  u32 rank, u32 dims[rank], f32 data[volume]
//! u32     number of buffer vectors (batch-norm running stats, …)
//! repeat  u32 len, f32 data[len]
//! ```
//!
//! Loading is strict: ranks, dims and buffer lengths must match the target
//! network exactly, so loading the wrong architecture fails fast instead
//! of silently corrupting weights.

use std::io::{Read, Write};

use litho_tensor::{Result, Tensor, TensorError};

use crate::layer::Layer;

const MAGIC: &[u8; 4] = b"LGW1";

fn io_err(err: std::io::Error) -> TensorError {
    TensorError::io(format!("weight i/o: {err}"))
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).map_err(io_err)?;
    Ok(u32::from_le_bytes(buf))
}

fn write_f32s<W: Write>(w: &mut W, data: &[f32]) -> Result<()> {
    // Bulk conversion; weights are at most a few tens of MB.
    let mut bytes = Vec::with_capacity(data.len() * 4);
    for v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&bytes).map_err(io_err)
}

fn read_f32s<R: Read>(r: &mut R, n: usize) -> Result<Vec<f32>> {
    let len = n
        .checked_mul(4)
        .ok_or_else(|| TensorError::InvalidArgument(format!("{n} floats overflow a byte count")))?;
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes).map_err(io_err)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Serializes all parameters and buffers of `net` into `writer`.
///
/// The same network architecture (same layer sequence) must be used when
/// loading. A `&mut W` can be passed wherever `W: Write` is required.
///
/// # Errors
///
/// Returns [`TensorError::Io`] wrapping any I/O failure.
pub fn save_weights<W: Write>(net: &mut dyn Layer, writer: W) -> Result<()> {
    let mut w = writer;
    w.write_all(MAGIC).map_err(io_err)?;

    let mut params: Vec<Tensor> = Vec::new();
    net.visit_params(&mut |p| params.push(p.value.clone()));
    write_u32(&mut w, params.len() as u32)?;
    for t in &params {
        write_u32(&mut w, t.dims().len() as u32)?;
        for &d in t.dims() {
            write_u32(&mut w, d as u32)?;
        }
        write_f32s(&mut w, t.as_slice())?;
    }

    let mut buffers: Vec<Vec<f32>> = Vec::new();
    net.visit_buffers(&mut |b| buffers.push(b.clone()));
    write_u32(&mut w, buffers.len() as u32)?;
    for b in &buffers {
        write_u32(&mut w, b.len() as u32)?;
        write_f32s(&mut w, b)?;
    }
    Ok(())
}

/// Restores parameters and buffers previously written by [`save_weights`].
///
/// # Errors
///
/// Returns [`TensorError::Io`] on I/O failure and [`TensorError::InvalidArgument`] on magic
/// mismatch, or any shape disagreement with the target network.
pub fn load_weights<R: Read>(net: &mut dyn Layer, reader: R) -> Result<()> {
    let mut r = reader;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(TensorError::InvalidArgument(
            "not a LGW1 weight stream".into(),
        ));
    }

    // Every count in the stream is checked against the target network
    // before anything is sized from it, so a corrupt header is an error,
    // never a header-sized allocation; nothing is mutated until the whole
    // stream has been read.
    let mut want_dims: Vec<Vec<usize>> = Vec::new();
    net.visit_params(&mut |p| want_dims.push(p.value.dims().to_vec()));
    let mut want_lens: Vec<usize> = Vec::new();
    net.visit_buffers(&mut |b| want_lens.push(b.len()));

    let n_params = read_u32(&mut r)? as usize;
    if n_params != want_dims.len() {
        return Err(TensorError::InvalidArgument(format!(
            "network has {} parameters, stream has {n_params}",
            want_dims.len()
        )));
    }
    let mut params = Vec::with_capacity(n_params);
    for want in &want_dims {
        let rank = read_u32(&mut r)? as usize;
        if rank != want.len() {
            return Err(TensorError::InvalidArgument(format!(
                "stream tensor has rank {rank}, network expects shape {want:?}"
            )));
        }
        let dims = (0..rank)
            .map(|_| read_u32(&mut r).map(|d| d as usize))
            .collect::<Result<Vec<_>>>()?;
        if &dims != want {
            return Err(TensorError::ShapeMismatch {
                left: want.clone(),
                right: dims,
            });
        }
        let data = read_f32s(&mut r, want.iter().product())?;
        params.push(Tensor::from_vec(data, &dims)?);
    }

    let n_buffers = read_u32(&mut r)? as usize;
    if n_buffers != want_lens.len() {
        return Err(TensorError::InvalidArgument(format!(
            "network has {} buffers, stream has {n_buffers}",
            want_lens.len()
        )));
    }
    let mut buffers = Vec::with_capacity(n_buffers);
    for &want in &want_lens {
        let len = read_u32(&mut r)? as usize;
        if len != want {
            return Err(TensorError::LengthMismatch {
                expected: want,
                actual: len,
            });
        }
        buffers.push(read_f32s(&mut r, len)?);
    }

    let mut params = params.into_iter();
    net.visit_params(&mut |p| {
        if let Some(value) = params.next() {
            p.value = value;
        }
    });
    let mut buffers = buffers.into_iter();
    net.visit_buffers(&mut |b| {
        if let Some(value) = buffers.next() {
            b.copy_from_slice(&value);
        }
    });
    Ok(())
}

/// Saves weights to a file path.
///
/// # Errors
///
/// Same conditions as [`save_weights`].
pub fn save_weights_to_path<P: AsRef<std::path::Path>>(net: &mut dyn Layer, path: P) -> Result<()> {
    let file = std::fs::File::create(path).map_err(io_err)?;
    save_weights(net, std::io::BufWriter::new(file))
}

/// Loads weights from a file path.
///
/// # Errors
///
/// Same conditions as [`load_weights`].
pub fn load_weights_from_path<P: AsRef<std::path::Path>>(net: &mut dyn Layer, path: P) -> Result<()> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    load_weights(net, std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Layer, Linear, Phase, Sequential};
    use litho_tensor::Tensor;
    use litho_tensor::rng::SeedableRng;

    fn small_net(seed: u64) -> Sequential {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Linear::new(3, 4, &mut rng));
        net.push(Linear::new(4, 2, &mut rng));
        net
    }

    #[test]
    fn round_trip_preserves_outputs() {
        let mut a = small_net(1);
        let mut b = small_net(2);
        let x = Tensor::ones(&[1, 3]);
        let ya = a.forward(&x, Phase::Eval).unwrap();
        assert_ne!(ya, b.forward(&x, Phase::Eval).unwrap());

        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();
        load_weights(&mut b, bytes.as_slice()).unwrap();
        assert_eq!(ya, b.forward(&x, Phase::Eval).unwrap());
    }

    #[test]
    fn batchnorm_buffers_round_trip() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(3);
        let mut a = Sequential::new();
        a.push(crate::Conv2d::new(1, 2, 3, 1, 1, &mut rng));
        a.push(BatchNorm2d::new(2));
        // Drive the running stats away from the defaults.
        let x = Tensor::full(&[2, 1, 4, 4], 3.0);
        for _ in 0..5 {
            a.forward(&x, Phase::Train).unwrap();
        }
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();

        let mut rng2 = litho_tensor::rng::StdRng::seed_from_u64(99);
        let mut b = Sequential::new();
        b.push(crate::Conv2d::new(1, 2, 3, 1, 1, &mut rng2));
        b.push(BatchNorm2d::new(2));
        load_weights(&mut b, bytes.as_slice()).unwrap();
        assert_eq!(
            a.forward(&x, Phase::Eval).unwrap(),
            b.forward(&x, Phase::Eval).unwrap()
        );
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut net = small_net(0);
        assert!(load_weights(&mut net, &b"nope"[..]).is_err());
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let mut a = small_net(0);
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();

        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut different = Sequential::new();
        different.push(Linear::new(3, 5, &mut rng));
        different.push(Linear::new(5, 2, &mut rng));
        assert!(load_weights(&mut different, bytes.as_slice()).is_err());
    }

    fn words(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn stream(header: &[u32]) -> Vec<u8> {
        [MAGIC.as_slice(), &words(header)].concat()
    }

    #[test]
    fn rejects_oversized_header_fields() {
        // small_net: 4 parameters, [4, 3], [4], [2, 4], [2]; no buffers.
        let mut net = small_net(0);
        let max = u32::MAX;
        for (what, bytes) in [
            ("param count", stream(&[max])),
            ("rank", stream(&[4, max])),
            ("dims", stream(&[4, 2, max, max])),
            ("dims product", stream(&[4, 2, 1 << 31, 1 << 31])),
            ("volume", stream(&[4, 2, 1 << 20, 3])),
        ] {
            assert!(load_weights(&mut net, bytes.as_slice()).is_err(), "{what}");
        }

        // A valid parameter section followed by an oversized buffer count.
        let mut bytes = Vec::new();
        save_weights(&mut net, &mut bytes).unwrap();
        bytes.truncate(bytes.len() - 4);
        bytes.extend(words(&[max]));
        assert!(
            load_weights(&mut net, bytes.as_slice()).is_err(),
            "buffer count"
        );

        // ... or by an oversized buffer length.
        let mut bn = Sequential::new();
        bn.push(BatchNorm2d::new(2));
        let mut bytes = Vec::new();
        save_weights(&mut bn, &mut bytes).unwrap();
        let (mut count, mut section) = (0, 4);
        bn.visit_buffers(&mut |b| {
            count += 1;
            section += 4 + 4 * b.len();
        });
        bytes.truncate(bytes.len() - section);
        bytes.extend(words(&[count, max]));
        assert!(
            load_weights(&mut bn, bytes.as_slice()).is_err(),
            "buffer length"
        );
    }

    #[test]
    fn rejects_every_truncation() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(5);
        let mut net = Sequential::new();
        net.push(crate::Conv2d::new(1, 2, 3, 1, 1, &mut rng));
        net.push(BatchNorm2d::new(2));
        let mut bytes = Vec::new();
        save_weights(&mut net, &mut bytes).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                load_weights(&mut net, &bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        load_weights(&mut net, bytes.as_slice()).unwrap();
    }
}
