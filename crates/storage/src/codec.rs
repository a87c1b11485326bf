//! Encoding between logical [`Value`]s and the 8-byte cells pages store.

use h2tap_common::{AttrType, H2Error, Result, Schema, Value};

/// Encodes one value into its 8-byte cell representation.
pub fn encode_value(value: &Value) -> u64 {
    value.to_cell()
}

/// Decodes one cell back into a value of the given type.
///
/// Strings are stored as stable 8-byte hashes (no workload in the paper's
/// evaluation filters or aggregates on string payloads), so they decode to an
/// opaque `Int64` code.
pub fn decode_cell(ty: AttrType, cell: u64) -> Value {
    match ty {
        AttrType::Int32 => Value::Int32(cell as u32 as i32),
        AttrType::Int64 => Value::Int64(cell as i64),
        AttrType::Float64 => Value::Float64(f64::from_bits(cell)),
        AttrType::Date => Value::Date(cell as u32 as i32),
        AttrType::Str => Value::Int64(cell as i64),
    }
}

/// Decodes one cell to its numeric (`f64`) interpretation, the form the
/// analytical engines aggregate over.
pub fn decode_cell_f64(ty: AttrType, cell: u64) -> f64 {
    match ty {
        AttrType::Int32 | AttrType::Date => f64::from(cell as u32 as i32),
        AttrType::Int64 | AttrType::Str => cell as i64 as f64,
        AttrType::Float64 => f64::from_bits(cell),
    }
}

/// Whether `value` may be stored in an attribute of type `ty`. A string
/// column also takes `Int64`, the opaque code it decodes to, so a record
/// read and written back unchanged always fits.
fn fits(ty: AttrType, value: &Value) -> bool {
    matches!(
        (ty, value),
        (AttrType::Int32, Value::Int32(_))
            | (AttrType::Int64, Value::Int64(_))
            | (AttrType::Float64, Value::Float64(_))
            | (AttrType::Date, Value::Date(_))
            | (AttrType::Str, Value::Str(_) | Value::Int64(_))
    )
}

/// Appends the cells of one record, encoded according to `schema`, to
/// `cells`, which is left as it was on an error.
///
/// # Errors
/// Fails when the record arity does not match the schema, or a value does
/// not match its attribute's type.
pub fn encode_into(schema: &Schema, values: &[Value], cells: &mut Vec<u64>) -> Result<()> {
    if values.len() != schema.arity() {
        return Err(H2Error::Config(format!(
            "record has {} values but schema has {} attributes",
            values.len(),
            schema.arity()
        )));
    }
    if let Some((attr, value)) = schema.attributes().iter().zip(values).find(|(attr, value)| !fits(attr.ty, value)) {
        return Err(H2Error::Config(format!("{value:?} does not fit attribute {:?} of type {:?}", attr.name, attr.ty)));
    }
    cells.extend(values.iter().map(encode_value));
    Ok(())
}

/// Decodes a full record according to `schema`.
pub fn decode_record(schema: &Schema, cells: &[u64]) -> Result<Vec<Value>> {
    if cells.len() != schema.arity() {
        return Err(H2Error::Config("cell count does not match schema arity".into()));
    }
    Ok(cells.iter().zip(schema.attributes()).map(|(cell, attr)| decode_cell(attr.ty, *cell)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::Attribute;

    fn encode(schema: &Schema, values: &[Value]) -> Result<Vec<u64>> {
        let mut cells = Vec::new();
        encode_into(schema, values, &mut cells).map(|()| cells)
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("id", AttrType::Int64),
            Attribute::new("qty", AttrType::Int32),
            Attribute::new("price", AttrType::Float64),
            Attribute::new("ship", AttrType::Date),
        ])
        .unwrap()
    }

    #[test]
    fn record_roundtrip() {
        let s = schema();
        let rec = vec![Value::Int64(-5), Value::Int32(7), Value::Float64(2.5), Value::Date(1000)];
        let cells = encode(&s, &rec).unwrap();
        let back = decode_record(&s, &cells).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn negative_int32_roundtrip() {
        assert_eq!(decode_cell(AttrType::Int32, encode_value(&Value::Int32(-42))), Value::Int32(-42));
        assert_eq!(decode_cell(AttrType::Date, encode_value(&Value::Date(-1))), Value::Date(-1));
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = schema();
        assert!(encode(&s, &[Value::Int64(1), Value::Int64(7), Value::Float64(2.5), Value::Date(0)]).is_err());
        let strings = Schema::new(vec![Attribute::new("name", AttrType::Str)]).unwrap();
        let cells = encode(&strings, &[Value::Str("ada".into())]).unwrap();
        let back = decode_record(&strings, &cells).unwrap();
        assert_eq!(encode(&strings, &back).unwrap(), cells, "a decoded string code writes back");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let s = schema();
        assert!(encode(&s, &[Value::Int64(1)]).is_err());
        assert!(decode_record(&s, &[1, 2]).is_err());
    }
}
